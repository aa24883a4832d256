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
// The hashes were last recorded with the encoding, %PDMFCOL5. A change that
// moves one of them and not the encoding has changed what the simulator
// computes: that is a new model and needs its own PR, not a new hash in a PR
// about something else. A change of encoding moves all of them and none of
// pinnedValues.
var pinnedTrials = map[string]string{
	"msa/seed1/static/4":                  "4816d2b588851cfaef40bdea6067a769c1724217ecc3ad6e1b8664c101e42f2d",
	"msa/seed1/static/16":                 "9c7eb6c0d3c6bce080f548ea28be789853258c6da4ce563c56846abc64200efc",
	"msa/seed1/dynamic,1/4":               "d2e086850dc868b4fdd136f0a36ad3ae70503f74e21aa6b1cb6ea34f9fbc044f",
	"msa/seed1/dynamic,1/16":              "b28c4e541cf61a8a0bba0dae9e0c1d643e6ce592dda986b7321600ecb0e30c26",
	"msa/seed1/guided/4":                  "bc816ec17609032400626577a60b7deda15f3bb5a98392e4ac2966ea2eee8aa2",
	"msa/seed1/guided/16":                 "fa6526cf81f9afccc3f44838dea9582f4b1066292a507cb022ca661d8b22355e",
	"msa/seed2/static/4":                  "00e340dee31fb4d847448993e6910cb8eb81e97271efdfda8f4d34ebcd0efea8",
	"msa/seed2/static/16":                 "4863580f5bb801128e21f21a3da4ab20f952a7b20e90ef8d81275f4724a0a071",
	"msa/seed2/dynamic,1/4":               "dfbbc9047614973a1ec0cf03b191af802e890d54da18f32471f0846904df5c6b",
	"msa/seed2/dynamic,1/16":              "dce8046552dad9ada758ee7d49ae862745d9f13413f82bdc0602cc6e8760d025",
	"msa/seed2/guided/4":                  "29e258e0587a64e8a0ab20f732671f49c643264e63bbac18dbb07b43470d6695",
	"msa/seed2/guided/16":                 "62895e7384b44be664a9bb26bf46638c4626ef799621434de42989d147577c9c",
	"msa/seed3/static/4":                  "701935acb0625f47610634fa9130acb207597b5c96f65edd1526a3b9c7e0b5c5",
	"msa/seed3/static/16":                 "3343cfda5a29059b2c817afb0d4497a77d5a12b9c7c01c6027f0bbb4e033a46e",
	"msa/seed3/dynamic,1/4":               "b7a652c6fb91fd673092aefc4dc11ddd7fa537856b8c8b1740eb6eb0be4edc40",
	"msa/seed3/dynamic,1/16":              "e754399803bde6e80efac8036b058363d68a25aff7968f2106fa533ab6d456a6",
	"msa/seed3/guided/4":                  "f52c8b1bdce329f8a584bbfbc5d5ad74503a66a3782720ce561a7edb5547ac01",
	"msa/seed3/guided/16":                 "a014906159dbf10cff956bf2f3a365731debbf39625d19f7692d3c14bcbd1876",
	"genidlest/45rib/OpenMP/opt=false/4":  "962be39730f49b9e858b894a45d13805e838254135dfd607207f186e403ef5e1",
	"genidlest/45rib/OpenMP/opt=false/8":  "a1ba6a8871194dcf84820af5a5fc0048e09a8d563e739b6b839763096d7529a3",
	"genidlest/45rib/OpenMP/opt=true/4":   "324fc7a31ccba663558af257dc8862d7dbef18c28a7069901f71196efe607e46",
	"genidlest/45rib/OpenMP/opt=true/8":   "684bdb51e2d18a68c0f3a34449fa1d85fa3fc6d73ef74e45dd38a5ac0d7aadcf",
	"genidlest/45rib/MPI/opt=false/4":     "460b4ef439bd0e789b2361a836a5dfd8e14f89be4de050a4cca29d7045587144",
	"genidlest/45rib/MPI/opt=false/8":     "462036db2beb076fa5cf447ca7dc15148374665ebf2cc06a727024cfc91cc24a",
	"genidlest/45rib/MPI/opt=true/4":      "cfac66a971bb10fc6d463fb1b7ebc2ed0165d025ee0f177e0833bf71d10f3c50",
	"genidlest/45rib/MPI/opt=true/8":      "8a4f420b36cefd27dd047973f8e329b63ce5e78c3376f8f8a19c36d515d172f0",
	"genidlest/45rib/Hybrid/opt=false/4":  "6d47570f583a4c64d48fe6a00fee92639184906aacd1c1e4088a8c53bb979ca2",
	"genidlest/45rib/Hybrid/opt=false/8":  "90a0360d142332fc68d126596812fc3aa3105de20da3ecb33e9d480bbafbc5c6",
	"genidlest/45rib/Hybrid/opt=true/4":   "ccbfa3b58d0b412257fbb4e11e966858a14e9f24ec8033df1749eff38bb555f6",
	"genidlest/45rib/Hybrid/opt=true/8":   "4568f888d38f9c2812f41c145581a31213aa3d39ebb19e76108e1bc729dc8ac8",
	"genidlest/90rib/OpenMP/opt=false/16": "9e37cf4c70cf4da2787e2b9d343cdaedf579dbd0413e18f81fa3ae2fd3c3617a",
	"genidlest/90rib/OpenMP/opt=false/32": "22a1f2f8e4c1f5c83f76f00f66893549d0ca6a78560b60ec25381fb850b42da6",
	"genidlest/90rib/OpenMP/opt=true/16":  "4c872d87eae870e485206fa574cebb50a7f817fa7ac4bb04d3857121e33c8671",
	"genidlest/90rib/OpenMP/opt=true/32":  "aac691ec3c4c61b4914858ce73ead897aa17f9b81ee1bc4d4a892ed0af8879dd",
	"genidlest/90rib/MPI/opt=false/16":    "e2de764014c89ce4ae4d6f0f5b2bcb0b93d6f5f410f5bc111a34fc23bccc1430",
	"genidlest/90rib/MPI/opt=false/32":    "9081595db5f9158d587591653bd66929e7be4b17605b7213fd7c57510e67c46c",
	"genidlest/90rib/MPI/opt=true/16":     "5af125f17a08b49aa947519477657d63a2668bf917b7b2408fba883aa4701f14",
	"genidlest/90rib/MPI/opt=true/32":     "b10b35a5e4e4840b277dfe9d54e17f9cf95c5edaa837315993ea9552703584d8",
	"genidlest/90rib/Hybrid/opt=false/16": "14b987b04b42ce4b278a07680b7bb0eb9acd07b2b50ea3d38522a7ecacb82ac1",
	"genidlest/90rib/Hybrid/opt=false/32": "c321dd32d8638b65b5316010ebeb6b45b4da82897b4742b2f65c5b8fdf756963",
	"genidlest/90rib/Hybrid/opt=true/16":  "29e13d8332a64a180dcf2737f23b493da3cb49b6f4fa4b9b0df125013866880e",
	"genidlest/90rib/Hybrid/opt=true/32":  "58fd856c027f2e25e19170a1f4502d3c9fb74c65de5f2ce8c89eafbf7a233ae8",
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

// Every pinned run, and the checked-in simulator trial, encodes straight
// from its rows (EncodeTrial) to the envelope around the payload its pivot
// encodes to (MarshalColumnar: ColumnsFromTrial, then the columns' encoder).
func TestSimulatorTrialsEncodeAsPivot(t *testing.T) {
	file, err := os.ReadFile(filepath.Join("..", "perfdmf", "testdata", "col4_sim.pdmf"))
	if err != nil {
		t.Fatal(err)
	}
	fixture, err := perfdmf.DecodeTrial(file)
	if err != nil {
		t.Fatal(err)
	}
	runs := append(pinnedRuns(), pinnedRun{"col4_sim.pdmf", func() (*perfdmf.Trial, error) { return fixture, nil }})
	for _, r := range runs {
		trial, err := r.run()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		payload, err := perfdmf.MarshalColumnar(trial)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		enc, err := perfdmf.EncodeTrial(trial)
		if err != nil || !bytes.HasPrefix(enc, append([]byte("%PDMF1\n"), payload...)) {
			t.Fatalf("%s: EncodeTrial is not the envelope around the pivot's payload (err=%v)", r.name, err)
		}
		if _, err := perfdmf.DecodeTrial(enc); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
	}
}

// simFixture is the run checked in as a %PDMFCOL4 file, written by the last
// encoder that wrote that form (commit c556ee4), as a %PDMFCOL3 file, written
// by the one before it (commit 57258a4), and as a %PDMFCOL2 file (commit
// 2565d7f).
const simFixture = "genidlest/45rib/OpenMP/opt=false/4"

// The checked-in simulator trial, in the previous encoding, still decodes to
// what the simulator computes for the run it names — value for value — and
// encodes, in the current form, to the bytes pinned for that run. Two and
// three versions back, it is refused by name.
func TestSimulatorFixture(t *testing.T) {
	file, err := os.ReadFile(filepath.Join("..", "perfdmf", "testdata", "col4_sim.pdmf"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(file[:32], []byte("%PDMFCOL4\n")) {
		t.Fatal("col4_sim.pdmf is not in the previous encoding")
	}
	trial, err := perfdmf.DecodeTrial(file)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := valueDigest(trial); err != nil || got != pinnedValues[simFixture] {
		t.Errorf("col4_sim.pdmf holds %q, %s is pinned at %q (err=%v)", got, simFixture, pinnedValues[simFixture], err)
	}
	enc, err := perfdmf.EncodeTrial(trial)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(enc)); got != pinnedTrials[simFixture] || len(enc) >= len(file) {
		t.Errorf("col4_sim.pdmf re-encodes to %q, %d B from %d B; pinned %q", got, len(enc), len(file), pinnedTrials[simFixture])
	}
	for _, v := range []string{"3", "2"} {
		old, err := os.ReadFile(filepath.Join("..", "perfdmf", "testdata", "col"+v+"_sim.pdmf"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := perfdmf.DecodeTrial(old); !errors.Is(err, perfdmf.ErrCorrupt) || !strings.Contains(err.Error(), "%PDMFCOL"+v+" is no longer read") {
			t.Errorf("col%s_sim.pdmf: DecodeTrial = %v; want it refused by name", v, err)
		}
	}
}
