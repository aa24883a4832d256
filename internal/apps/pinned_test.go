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
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"perfknow/internal/apps/genidlest"
	"perfknow/internal/apps/msa"
	"perfknow/internal/machine"
	"perfknow/internal/parallel"
	"perfknow/internal/perfdmf"
	"perfknow/internal/sim"
)

// pinnedTrials maps a simulated run to the SHA-256 of its encoded trial.
// The hashes were recorded at commit 613d8d4. A change that moves one of
// them has changed what the simulator computes: that is a new model and
// needs its own PR, not a new hash in a PR about something else.
var pinnedTrials = map[string]string{
	"msa/seed1/static/4":                  "645211cf6ce14dbf7a94d91a9f8f1207b36e2ee7e855922bab4f198d63d06139",
	"msa/seed1/static/16":                 "d8ec3697fc5a5e57e7f5a7650c343d6dc4ed07922f414a22cdacdd6d463ba363",
	"msa/seed1/dynamic,1/4":               "3a5de3f1596bf490e2d4df7240f410712b5c48b03e12d65c7a9ed6d66017832b",
	"msa/seed1/dynamic,1/16":              "9f4819abb240bee1ff796ae2b1a1999f6fd1b2883462c4c8c1dac9b6d0f7e0e7",
	"msa/seed1/guided/4":                  "bacdd2c5cb34f7faca40139f652aed79143a56bf9c30036da0b95a9f1079316f",
	"msa/seed1/guided/16":                 "973a63c8ff05bd52f5a962da3c91b3ea0fc19ac28e9d39c6969dfe4c5c35da78",
	"msa/seed2/static/4":                  "f85f45d78f43beadfef620988f0e68ee4ff48999736be9b1c4b89ef959d488ea",
	"msa/seed2/static/16":                 "e98f303e25d73dd502d3d4bab0993d69b53ebd635f978394820df09601711819",
	"msa/seed2/dynamic,1/4":               "e1e22d187586315904c8de4c0887a2f9b2727a30db01bba919554c97722d8ac5",
	"msa/seed2/dynamic,1/16":              "54b1ade4efa43f978e12daad37016f28b4951dc233eb8ea0064c9132774b99fc",
	"msa/seed2/guided/4":                  "0bba7d8de3e275c41c1c68b755fcee6bb777597539a0a90d84e2da66e4ae97cf",
	"msa/seed2/guided/16":                 "c9adb3c855d3af7744885f0e5c411a0dd6212df16d583e2ac056b9cb610d2d4a",
	"msa/seed3/static/4":                  "2b4d40002a41399219ec6866a81bf38273efb66a3918c315e237213596b0a639",
	"msa/seed3/static/16":                 "fc2827cc89b4da8e001f9ea649daa6119257a653d252000d7bec3774c20e1f4b",
	"msa/seed3/dynamic,1/4":               "2c9d1a4644bd07260969311835b38c7934df949499a064b36f84d7b606cab63c",
	"msa/seed3/dynamic,1/16":              "41feb61a3c9c0bd42633cb63ab674c4d0d3459613e3826e605590e4058620861",
	"msa/seed3/guided/4":                  "d18f6c3e2cb59311b60c88edd8e630932774af6f7d57b3ead07d9d56ab929a80",
	"msa/seed3/guided/16":                 "a83f9ef44cf85fd60cd211e2dd6634d66014866c9e33931b00b4e3486394b8a2",
	"genidlest/45rib/OpenMP/opt=false/4":  "4d64a294bf4303e27e43ec4fee801deb96a9f9b04fd210c8df47d86547033e9d",
	"genidlest/45rib/OpenMP/opt=false/8":  "bb8d2aef44b5db91269737f78006ac396ebc24c191a4d2b3810d26c6158a5e96",
	"genidlest/45rib/OpenMP/opt=true/4":   "5e99a73905d776a60a5698549691427f1980e52ab585c169021b9b50a5b97bc8",
	"genidlest/45rib/OpenMP/opt=true/8":   "ea5e344496abf83300cc9f5c2d367afc18e031da1328900eadc102ac7d3803b7",
	"genidlest/45rib/MPI/opt=false/4":     "c886427dffb644da1afbab89844aede0614c93e85f4470e5964f319fb50429f6",
	"genidlest/45rib/MPI/opt=false/8":     "5e300926a9c392374ec051be83ec28011c96ed81b8c2eb906668957597b0ce8d",
	"genidlest/45rib/MPI/opt=true/4":      "7b9c09357e2d7e49e6b707ca83986991c84310a117c97f25c4fc4376829bc12e",
	"genidlest/45rib/MPI/opt=true/8":      "003e0bb47810062d1f704ec772158edd0748c18c43f548e35622e0187575e724",
	"genidlest/45rib/Hybrid/opt=false/4":  "c9c63057807678854d02bb1b0b5e59d5e94fd44abf59a77c58fe9217f8b1383f",
	"genidlest/45rib/Hybrid/opt=false/8":  "21736b3075317ac57c094af31c069b64732bba4b07d4406ab517dbcf8cd15336",
	"genidlest/45rib/Hybrid/opt=true/4":   "fee243ca37c0dbb21feb76db0272da90e312387b3824659d7ed1663eff368fa7",
	"genidlest/45rib/Hybrid/opt=true/8":   "0ff1f4cb0696629f01bbc60ebf72f8a03bbf1654fee861cc2b9834cb7a90d14a",
	"genidlest/90rib/OpenMP/opt=false/16": "efbb14111f088298be690b856eb722f1587db2217fbca77586045929b1115649",
	"genidlest/90rib/OpenMP/opt=false/32": "a79593e1924550b1a4c3a4eaae584f2e7300c7f41436591073b85194445aec2d",
	"genidlest/90rib/OpenMP/opt=true/16":  "bd0c5bb3b4df68b0662c1a54477bb08bdfa4456887c4310ef5502928b29db9ed",
	"genidlest/90rib/OpenMP/opt=true/32":  "ff69a904d3b3eabe797bab3c7a6d22c390f554f8e2c8539e2b1dc9d84690fbbc",
	"genidlest/90rib/MPI/opt=false/16":    "81d41f87a690d721e2cf436e9577d1b824745406e5eaa85d17bfb47540f91695",
	"genidlest/90rib/MPI/opt=false/32":    "287369e81abaede3fe0067e61506ff98b2058ab1b6d6a58de07e666d75fdeb45",
	"genidlest/90rib/MPI/opt=true/16":     "c1e585b99d92d421f3831fdb08b83875cab592ee5014f7176d80213b5924480c",
	"genidlest/90rib/MPI/opt=true/32":     "4de21989e8b56f4439595042a58cab1ef576d090ce69ffc59c6290003b4d6d53",
	"genidlest/90rib/Hybrid/opt=false/16": "b7efd1655a48bbf08ed0a3e3139d76a4d2a24536a289b06c0eca2b9b77f8f6aa",
	"genidlest/90rib/Hybrid/opt=false/32": "646b0ae69713443c83d3fab510adbb7bd00eac837a93f8e65a0054f7569b3b61",
	"genidlest/90rib/Hybrid/opt=true/16":  "17c49ff16401f8f5e09169a36a2840f8eac74607e881165ed059e2b1086d21ab",
	"genidlest/90rib/Hybrid/opt=true/32":  "1a4ff3a0466e79836542bfe683fefaf8c4c87e75c35099cd099778b263d0306f",
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
	defer parallel.SetDefaultWorkers(0)
	runs := pinnedRuns()
	if len(runs) != len(pinnedTrials) || len(runs) != len(pinnedValues) {
		t.Errorf("%d runs, %d pinned hashes, %d pinned value digests", len(runs), len(pinnedTrials), len(pinnedValues))
	}
	for _, workers := range []int{1, 0} {
		parallel.SetDefaultWorkers(workers)
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
				t.Errorf("workers=%d %q: %q, pinned %q", workers, r.name, got, pinnedTrials[r.name])
			}
			if got, err := valueDigest(trial); err != nil || got != pinnedValues[r.name] {
				t.Errorf("workers=%d values %q: %q, pinned %q (err=%v)", workers, r.name, got, pinnedValues[r.name], err)
			}
		}
	}
}

// simFixture is the run checked in as a %PDMFCOL2 file, written by the last
// encoder that wrote that form (commit 2565d7f).
const simFixture = "genidlest/45rib/OpenMP/opt=false/4"

// The checked-in simulator trial is byte for byte what this commit's encoder
// writes for the run it names.
func TestSimulatorFixture(t *testing.T) {
	file, err := os.ReadFile(filepath.Join("..", "perfdmf", "testdata", "col2_sim.pdmf"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range pinnedRuns() {
		if r.name != simFixture {
			continue
		}
		trial, err := r.run()
		if err != nil {
			t.Fatal(err)
		}
		enc, err := perfdmf.EncodeTrial(trial)
		if err != nil || !bytes.Equal(enc, file) {
			t.Fatalf("col2_sim.pdmf is not the encoding of %s (err=%v)", simFixture, err)
		}
		return
	}
	t.Fatalf("no pinned run %q", simFixture)
}
