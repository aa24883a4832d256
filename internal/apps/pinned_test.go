// Package apps_test pins the simulator's outputs across commits: the band
// checks in the app packages accept any trial inside a tolerance and the
// determinism tests compare a commit with itself, so neither notices a
// change to internal/sim or internal/machine that moves every number a
// little. This table does.
package apps_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"perfknow/internal/apps/genidlest"
	"perfknow/internal/apps/msa"
	"perfknow/internal/machine"
	"perfknow/internal/perfdmf"
	"perfknow/internal/sim"
)

// pinnedTrials maps a simulated run to the SHA-256 of its encoded trial.
// The hashes were last recorded with the encoding, %PDMFCOL4. A change that
// moves one of them and not the encoding has changed what the simulator
// computes: that is a new model and needs its own PR, not a new hash in a PR
// about something else. A change of encoding moves all of them and none of
// pinnedValues.
var pinnedTrials = map[string]string{
	"msa/seed1/static/4":                  "371c925eb70145c0a38bc8b0cfdad3122e29fbddcbe1c35746cd595cb2c26093",
	"msa/seed1/static/16":                 "5db3b65fb872d584d805c93355445bb25461ac9e1b55b41775ebc62c9ef54c29",
	"msa/seed1/dynamic,1/4":               "15bb60982bcc0e9b36612e0901666c447c1299566932b183d1c87333a6487677",
	"msa/seed1/dynamic,1/16":              "ec92e69d083467d363c143ef3f2636caffb41bf169d5fe891f8a707ce46d8ba4",
	"msa/seed1/guided/4":                  "e7479e05041baf6f6f0b3ce1c01a49cfc57e73383fd32c31ecfa0cf78f121415",
	"msa/seed1/guided/16":                 "2bc9bffd6e26e07cbaba10839fe30e65494567535ac38d2c43bc102172d7b4fc",
	"msa/seed2/static/4":                  "8086e07541e081c3ba80ec8b51f6afbbed67230569e954b1f446210a7580a40d",
	"msa/seed2/static/16":                 "277090fa394d149c1a97958211d41eeef0974feb6daec498336e9e7cb5cd0f26",
	"msa/seed2/dynamic,1/4":               "c698ed730762d787252d1737830fd2d3bbcc071633cfedfd3e3ecaca324c4c49",
	"msa/seed2/dynamic,1/16":              "b198dda70a885db2577fd458e36ca51f9b42ba566ff5454799695f03f31c2292",
	"msa/seed2/guided/4":                  "696ca09f916d08891feb006238abc02468448f3def829619f51fe261a5231ae5",
	"msa/seed2/guided/16":                 "0fbd4da49bafde4620035e4c58a85300842a4a86bb75b2c0be63a89d49707ed3",
	"msa/seed3/static/4":                  "593a2c059ca4b49b18f2f08dd4c0212f7bcf2d02fbf6a83b083eac18a461ed3f",
	"msa/seed3/static/16":                 "9f79d886e9c4e209dc2a9721b1df17642d527803c4401c9addc217e279554c00",
	"msa/seed3/dynamic,1/4":               "f30193eade12e0cdab54f56341f9f672baed6d1ef17f2d5d1dbf5e7fa417f318",
	"msa/seed3/dynamic,1/16":              "76181dd4e038046704226d0ce4d2739f0e8fe95031987e24770b9d1030c952d7",
	"msa/seed3/guided/4":                  "2d4e5621cacee1122d819f0ff306b64f8319223a8fc71b2703d65555aa50bb7b",
	"msa/seed3/guided/16":                 "c03ce826ef8a00db853307a53b5994b730639709c705f543adaa115a7715316b",
	"genidlest/45rib/OpenMP/opt=false/4":  "b1c35a4d49f2c16a28d419e3cea2d08a0a36ca86e57c9fdbbbeec4fb195c9253",
	"genidlest/45rib/OpenMP/opt=false/8":  "8062905098dda14967db6360bfa9437aeb9e6a2822b37c8f5c556db3be8c3ced",
	"genidlest/45rib/OpenMP/opt=true/4":   "9955266c328a0c9586e1139e5f0ff0f3041b043a508d90595bd19a47d30861f0",
	"genidlest/45rib/OpenMP/opt=true/8":   "e4386debd13053b1b3463725f4239a8244bbb001bc201b6c8e413ff1dc326f5a",
	"genidlest/45rib/MPI/opt=false/4":     "7ad77e615ae4be00ca4b948c7442a4d6b149654cd118b8a183aa449563d32ddc",
	"genidlest/45rib/MPI/opt=false/8":     "8a89900a5ed616be839674e997d665b7a76999f2ac479c567d77266b4de9932b",
	"genidlest/45rib/MPI/opt=true/4":      "e64d0d68b0cdb20409f46fe356a1d5d64a9c1dd541fd5ced2c6107b2c0c2142a",
	"genidlest/45rib/MPI/opt=true/8":      "516a5ea9e0fa5cdc9f044a0281955dc3fc15eea9826a3a186f3c252f61a06307",
	"genidlest/45rib/Hybrid/opt=false/4":  "3b47c921160b1d3ef18a8863f19e249acba2daa046056baf99ca145425d1f33b",
	"genidlest/45rib/Hybrid/opt=false/8":  "ae52ff9d0e2b6a322304abe1df1f89ce761e839b16f770f61731c3beebda5560",
	"genidlest/45rib/Hybrid/opt=true/4":   "54c98c55960c0cebb867f679d8bc3504339f38af457f7b67590e7e558cc69113",
	"genidlest/45rib/Hybrid/opt=true/8":   "de2f239be69c202d95c2e8ac3c4958e87cb92bbaeb87ff5ce4e8e6e8fc77271e",
	"genidlest/90rib/OpenMP/opt=false/16": "9daa06297404164fdd807ecaa86a6bafeadca7730ed312172893f33e4b76c732",
	"genidlest/90rib/OpenMP/opt=false/32": "6b430f90a1a978fc4590b94fe49a77fb4cd460463ee07f97c29bac0789ba7115",
	"genidlest/90rib/OpenMP/opt=true/16":  "7e2277f14fca1b1c5b0e2da5b911d1f6c52ace0b10e6b2755aef9631c8d59e65",
	"genidlest/90rib/OpenMP/opt=true/32":  "ff06750fb83afe2c9d2e6b059d1bd5ac53e3d506aa3cf04a6cc72fd302049c09",
	"genidlest/90rib/MPI/opt=false/16":    "753ff35df1191ec96d6eb99b41eff7e02af498d53c8363bcd73b75a6a8478329",
	"genidlest/90rib/MPI/opt=false/32":    "32b64945d257c5d7d350f3ee2b69c69c20cfdd26224b169165e68b43e85dd1bf",
	"genidlest/90rib/MPI/opt=true/16":     "efce2a444802cf782f5f5393bd381bafd7d7826d5b2a4341bcc80a686bca8d9f",
	"genidlest/90rib/MPI/opt=true/32":     "f5152abf8ee079d8a61c84da438dba855799c899bdf23d47f2a736a6f91f3883",
	"genidlest/90rib/Hybrid/opt=false/16": "28fe2d76ab72cd0897b66d4b3aa7e50c6bb559c9c83970b82012d5baf4f71fd1",
	"genidlest/90rib/Hybrid/opt=false/32": "a18a34f8b2fb8aa432804f347a2bdf5e9f54ad0e7ce636ae24f3fbadbbad99a4",
	"genidlest/90rib/Hybrid/opt=true/16":  "ccd34dca085a108531af8e150b61deada4f55a97ecd809cd970a1e6653dc2c76",
	"genidlest/90rib/Hybrid/opt=true/32":  "348466fe1c27f5ef20d7ba28e637be52e7c669c26079b5fcd9381b2c592774cb",
}

// pinnedValues maps the same runs to valueDigest of their trial: what the
// simulator computed, whatever the encoding. A PR that changes the encoding
// re-records pinnedTrials and must leave this table untouched in its diff;
// that is the proof that no simulated value moved. Recorded at commit
// 2565d7f, before %PDMFCOL3.
var pinnedValues = map[string]string{
	"msa/seed1/static/4":                  "04303697d481d8390fcc80f52ef9810873074377541f2c5a804f6d03510d7e97",
	"msa/seed1/static/16":                 "23133bad17fe2452d73784803e237e40c98f8cf6952d42c130b543df0755f628",
	"msa/seed1/dynamic,1/4":               "bb947b5d4150cd93e2c8a032eaaf8b65837003f591cc8a645eeb7026adf7b6f3",
	"msa/seed1/dynamic,1/16":              "5ac9af804196b20e9c6b44d634b938fee23e56c348f88d9a312634d20f5c3884",
	"msa/seed1/guided/4":                  "b403894ca6eeee712cc4cd83f3d5701a3ae55a1fd0d11ea8c6b0a9a985c6ad4d",
	"msa/seed1/guided/16":                 "e7b90bf1ecb4bb6bdf692507e432290105bbb663787ae5791f17192cd689cd2c",
	"msa/seed2/static/4":                  "4b663ba8ec7ed07f6c8c91c34517bfacdf3836d2b29249e6d3012a105de70841",
	"msa/seed2/static/16":                 "aa7682382932783d860c309e66ffd570454235dbdd020f5b90919f326491d2ef",
	"msa/seed2/dynamic,1/4":               "255be41eedff83ee102f8bdee60315eb5c682f30662af4564a24fde92c81caf4",
	"msa/seed2/dynamic,1/16":              "f65f465d26df083b0d78231a6b9f9cce38d030ccaca2d13a4e2a3f97e262971a",
	"msa/seed2/guided/4":                  "8fb0d29b7fb45a12858cdb218f40f7c4136fb9ba65fcc906a4a2089fa7684304",
	"msa/seed2/guided/16":                 "eff04b2a38fe33793651eaa3b1decbb18e7fad67eb7a35430632410ea76b2d46",
	"msa/seed3/static/4":                  "c27e672fae966b18877c817c6d010414183c4cde56f50e9aeac7fea1d0aab83f",
	"msa/seed3/static/16":                 "bb43727e3f415793fd7c41358f2e75d362e688b4e4f45b83fe662aac5d6b6414",
	"msa/seed3/dynamic,1/4":               "a2bad4f3a04c8e06a6be0c791b0a6f4cadb7f82161f94ff99823ded6e45c07cd",
	"msa/seed3/dynamic,1/16":              "ce481e8376c7d635bcfd4b65e1a930300fc548263e9d87a59d1124c1de071630",
	"msa/seed3/guided/4":                  "92adff6f9c7090cb3911e23a53ce469f15a553ab1c88ee0cf57c926007560e1a",
	"msa/seed3/guided/16":                 "1ca3aff8e272beb2d6a8f03f65f8f3d193ae8a6ec57d4707bf4b2e2c5f9ab9fe",
	"genidlest/45rib/OpenMP/opt=false/4":  "e6f1e0f7703209c01db16fce823de16d0b5f449d59d02aff03ee1cd999d20ba3",
	"genidlest/45rib/OpenMP/opt=false/8":  "2fa5e69439ef9140741696357c7c426d9ad93a98f949a68107d952c19b58f9c9",
	"genidlest/45rib/OpenMP/opt=true/4":   "9a226c313510f83a49291c943097b06fa8dbbdb62c4466acbc8fa71c66723e83",
	"genidlest/45rib/OpenMP/opt=true/8":   "2ccb9fe18f827fae5e044b0e59f8b34e8b22557c4c7582913e33689e587a60a9",
	"genidlest/45rib/MPI/opt=false/4":     "c78b8c9aa0268c9b25ecf6707e186c4fe0777bc77e3029195d7931989ce71c52",
	"genidlest/45rib/MPI/opt=false/8":     "baefeb4f5f9ad0b09494562fd951ba98731558aa59b8ae9be3758898a4e906e1",
	"genidlest/45rib/MPI/opt=true/4":      "c91fa951fb90d83800d5a01e36126e109d1807cc27bffc9ff944a615342993eb",
	"genidlest/45rib/MPI/opt=true/8":      "c95fdaff0b52a7a1f2577e6f8660611d2876a7045c723e82f541f729c49e44d7",
	"genidlest/45rib/Hybrid/opt=false/4":  "2ec958da88300863f0e78f0913012c971624303e475958feb72002765a469bd4",
	"genidlest/45rib/Hybrid/opt=false/8":  "e8e659cd579a0b1ec832b8ea248bc978b7a02ea6d123a12ec045acc56c03ed8e",
	"genidlest/45rib/Hybrid/opt=true/4":   "87e1b42b9d2d02c68e6850ce7c974aa1f879ac54fcaaaba53b126e06c0cf8314",
	"genidlest/45rib/Hybrid/opt=true/8":   "bc4d9805ea70245b8104bfdffd3c7b7f7518641e9b640e821dbd758df54f261f",
	"genidlest/90rib/OpenMP/opt=false/16": "9e8f1f881749fcd2873be325650353d63639cef5874942e0348f2bbdd36d7fd1",
	"genidlest/90rib/OpenMP/opt=false/32": "722e69fa9b1f17908f23503e963adee73179f73b3b60787c5546c945c0dc7be9",
	"genidlest/90rib/OpenMP/opt=true/16":  "bc8c72f0b969b83236e39ee8c613d2a91597c8ea429ee8bd9dcd451cd95e7c9f",
	"genidlest/90rib/OpenMP/opt=true/32":  "8dc0a67fffc54487c2499531a735769bee22ca42cc28364f2faee24b76b84334",
	"genidlest/90rib/MPI/opt=false/16":    "114d6e66610e49d695655b19141c56249d5db6e2d4abc76de65768131cc1fb1d",
	"genidlest/90rib/MPI/opt=false/32":    "85aba3c3ad9653bd6f3b9fcb2f17a80280b780fa4f83a6e1cce8bc820f217836",
	"genidlest/90rib/MPI/opt=true/16":     "869bd7675be87239d6bf43d71aa0fb93e2085abe7d5bbcc28f31ce7ccef5f1d2",
	"genidlest/90rib/MPI/opt=true/32":     "fcbdbef68bc641f778707d7f447b10e056f5c06e6bebc8a993ebb51374cf33c0",
	"genidlest/90rib/Hybrid/opt=false/16": "5512ea8d08326a460970d44fe36c6d1bf196e0c538c9b4afc251fd60e0fe8868",
	"genidlest/90rib/Hybrid/opt=false/32": "0f79fae005170434e2c2504dafeedc932ddea88ed28fb56f5cd1d65bc8b21b6b",
	"genidlest/90rib/Hybrid/opt=true/16":  "dad6e477734c2d4787fecb069c493ee3be5cabab3e614d91c5c81d9a62f1ca7a",
	"genidlest/90rib/Hybrid/opt=true/32":  "5e2b63324749c4cf3743e665cf059ef78dfcf3794e2cb47f4ce84f97b4749122",
}

// valueDigest is a SHA-256 over everything a trial holds, independent of
// how a trial is encoded: coordinates, thread count, registered metrics,
// sorted metadata, then in dictionary order every event's name and groups,
// the calls block and, per column, the metric, both presence vectors and the
// Float64bits of every inclusive and exclusive value.
func valueDigest(t *perfdmf.Trial) (string, error) {
	c, err := perfdmf.ColumnsFromTrial(t)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	num := func(n int) { binary.Write(h, binary.BigEndian, uint64(n)) }
	str := func(ss ...string) {
		num(len(ss))
		for _, s := range ss {
			num(len(s))
			h.Write([]byte(s))
		}
	}
	vals := func(xs []float64) {
		num(len(xs))
		for _, x := range xs {
			binary.Write(h, binary.BigEndian, math.Float64bits(x))
		}
	}
	present := func(bs []bool) {
		num(len(bs))
		for _, b := range bs {
			binary.Write(h, binary.BigEndian, b)
		}
	}
	str(c.App, c.Experiment, c.Name)
	num(c.Threads)
	str(c.Metrics...)
	keys := make([]string, 0, len(c.Metadata))
	for k := range c.Metadata {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		str(k, c.Metadata[k])
	}
	for ev, name := range c.EventNames {
		str(name)
		str(c.Groups[ev]...)
	}
	vals(c.Calls)
	for i := range c.Cols {
		col := &c.Cols[i]
		str(col.Metric)
		present(col.IncPresent)
		present(col.ExcPresent)
		vals(col.Inc)
		vals(col.Exc)
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

type pinnedRun struct {
	name string
	run  func() (*perfdmf.Trial, error)
}

func pinnedRuns() []pinnedRun {
	mcfg := machine.Altix(16, 2)
	var runs []pinnedRun
	for seed := int64(1); seed <= 3; seed++ {
		for _, sched := range []sim.Schedule{{Kind: sim.StaticSched}, {Kind: sim.DynamicSched, Chunk: 1}, {Kind: sim.GuidedSched}} {
			for _, threads := range []int{4, 16} {
				p := msa.DefaultParams(threads, sched)
				p.Seed = seed
				runs = append(runs, pinnedRun{
					name: fmt.Sprintf("msa/seed%d/%s/%d", seed, sched, threads),
					run:  func() (*perfdmf.Trial, error) { return msa.Run(mcfg, p) },
				})
			}
		}
	}
	for _, prob := range []genidlest.Problem{genidlest.Rib45(), genidlest.Rib90()} {
		for _, mode := range []genidlest.Mode{genidlest.OpenMP, genidlest.MPI, genidlest.Hybrid} {
			for _, opt := range []bool{false, true} {
				for _, threads := range []int{prob.Blocks / 2, prob.Blocks} {
					cfg := genidlest.DefaultConfig(prob, mode, threads)
					cfg.Optimized = opt
					if mode == genidlest.Hybrid {
						cfg.ThreadsPerRank = 4
					}
					runs = append(runs, pinnedRun{
						name: fmt.Sprintf("genidlest/%s/%s/opt=%v/%d", prob.Name, mode, opt, threads),
						run:  func() (*perfdmf.Trial, error) { return genidlest.Run(mcfg, cfg) },
					})
				}
			}
		}
	}
	return runs
}

func TestSimulatorOutputsPinned(t *testing.T) {
	runs := pinnedRuns()
	if len(runs) != len(pinnedTrials) || len(runs) != len(pinnedValues) {
		t.Errorf("%d runs, %d pinned hashes, %d pinned value digests", len(runs), len(pinnedTrials), len(pinnedValues))
	}
	for _, r := range runs {
		trial, err := r.run()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		enc, err := perfdmf.EncodeTrial(trial)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(enc)); got != pinnedTrials[r.name] {
			t.Errorf("%q: %q, pinned %q", r.name, got, pinnedTrials[r.name])
		}
		if got, err := valueDigest(trial); err != nil || got != pinnedValues[r.name] {
			t.Errorf("values %q: %q, pinned %q (err=%v)", r.name, got, pinnedValues[r.name], err)
		}
	}
}

// simFixture is the run checked in as a %PDMFCOL3 file, written by the last
// encoder that wrote that form (commit 57258a4), and as a %PDMFCOL2 file,
// written by the one before it (commit 2565d7f).
const simFixture = "genidlest/45rib/OpenMP/opt=false/4"

// The checked-in simulator trial, in the previous encoding, still decodes to
// what the simulator computes for the run it names — value for value — and
// encodes, in the current form, to the bytes pinned for that run. Two
// versions back, it is refused by name.
func TestSimulatorFixture(t *testing.T) {
	file, err := os.ReadFile(filepath.Join("..", "perfdmf", "testdata", "col3_sim.pdmf"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(file[:32], []byte("%PDMFCOL3\n")) {
		t.Fatal("col3_sim.pdmf is not in the previous encoding")
	}
	trial, err := perfdmf.DecodeTrial(file)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := valueDigest(trial); err != nil || got != pinnedValues[simFixture] {
		t.Errorf("col3_sim.pdmf holds %q, %s is pinned at %q (err=%v)", got, simFixture, pinnedValues[simFixture], err)
	}
	enc, err := perfdmf.EncodeTrial(trial)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(enc)); got != pinnedTrials[simFixture] || len(enc) >= len(file) {
		t.Errorf("col3_sim.pdmf re-encodes to %q, %d B from %d B; pinned %q", got, len(enc), len(file), pinnedTrials[simFixture])
	}
	old, err := os.ReadFile(filepath.Join("..", "perfdmf", "testdata", "col2_sim.pdmf"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := perfdmf.DecodeTrial(old); !errors.Is(err, perfdmf.ErrCorrupt) || !strings.Contains(err.Error(), "%PDMFCOL2 is no longer read") {
		t.Errorf("col2_sim.pdmf: DecodeTrial = %v; want it refused by name", err)
	}
}
