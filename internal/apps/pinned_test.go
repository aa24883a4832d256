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
	"perfknow/internal/perfdmf"
	"perfknow/internal/sim"
)

// pinnedTrials maps a simulated run to the SHA-256 of its encoded trial.
// The hashes were last recorded with the encoding, %PDMFCOL3. A change that
// moves one of them and not the encoding has changed what the simulator
// computes: that is a new model and needs its own PR, not a new hash in a PR
// about something else. A change of encoding moves all of them and none of
// pinnedValues.
var pinnedTrials = map[string]string{
	"msa/seed1/static/4":                  "55195ce9e5e6231452ee774d0ab7cfe298db6aa3a99b893d0824fce3acedc2ca",
	"msa/seed1/static/16":                 "5b89043568c1d8b17c2245987e6d53fb50b996ac72dabc2f2294ebf27cfadd98",
	"msa/seed1/dynamic,1/4":               "7fca522e12844b0c361ad8d070a737f26c44d9a138a73a39d292efd4733e0ea9",
	"msa/seed1/dynamic,1/16":              "1cea031dbc0ada012eedce4e8c9c3b9370d8d4a3245bb132a722b1e72b010421",
	"msa/seed1/guided/4":                  "fd5c49460299e606ecd628bf7d053f41d2daf967eadaa6d1e0f2bc3f9f8e8eb7",
	"msa/seed1/guided/16":                 "bf31736d23db2479020e98746fb8b8fdb27f88bb30f5a282ef113a7bd312a3dd",
	"msa/seed2/static/4":                  "3b1a5f2d67e541fc7dc85f84dacfbf7a478317ace3fbc190d8c9c11267c79fa9",
	"msa/seed2/static/16":                 "19f2d850b7867a050cc36964191c2b8c1a2749745284a9cd40345c441bf65150",
	"msa/seed2/dynamic,1/4":               "f6e4bd89889af1ed035d52a0464e096038ab5cdc8105f316559c308daffcb282",
	"msa/seed2/dynamic,1/16":              "a4209323bb5606c6334868851cf3562f5d122a68fa2dc257e9a430a99bb31053",
	"msa/seed2/guided/4":                  "82ade220382145765de73e39601c58ff2fe3b13603553b715fea1f8d0427d939",
	"msa/seed2/guided/16":                 "bb88cd2ac617465f2657d037238a60ba7c95b5b5f4f4da3873e786f5a5b485b2",
	"msa/seed3/static/4":                  "82baef3720ad0bb950af7ca5e5baf76598b34164bb986e5a811320422bee932d",
	"msa/seed3/static/16":                 "2d8d15622f5fb36b2fb7065c9e6eb91d9cdd52a51c6841a2a7ff636cc439f546",
	"msa/seed3/dynamic,1/4":               "74b999ec28fc94fa0d4552ace3356dbb583877b1b08bde66bb27c04cf7a84108",
	"msa/seed3/dynamic,1/16":              "023f3879860b70d6fe40eaa554130fc78d27202f7183a4f3d6d1597e61de7526",
	"msa/seed3/guided/4":                  "57752569aa9916f0205b2fafc5bf8e11c455d8ada6a3641c41f06e3facce35b1",
	"msa/seed3/guided/16":                 "49faef43e960b1c8258a8cb9c829cd4eb8220c28245412a604def0d68dd16018",
	"genidlest/45rib/OpenMP/opt=false/4":  "ff0dd68315b195d851ff37ba9ec4d1e4e834709fbbca3728a4700deed8604617",
	"genidlest/45rib/OpenMP/opt=false/8":  "b85ef547342b7137921048b15843804fabe0fa2f5f77fc9284462a8dec4088f5",
	"genidlest/45rib/OpenMP/opt=true/4":   "5cfaf3f200ff3ad5eddca79fa1f58e367ff3ac8be31d784cb87df277415b20ba",
	"genidlest/45rib/OpenMP/opt=true/8":   "6b2aa3abc66fa1f97d6e618a82db885baea282ec2a1fecea8cfccefa54ed9b69",
	"genidlest/45rib/MPI/opt=false/4":     "ef5b93d87c654053d1786194339855e51497e475a579221aac05e6594fe89741",
	"genidlest/45rib/MPI/opt=false/8":     "c6bf4de5f33b11ae48e351defd4de2dcfbd929701a597e90e2dd67ef5aa804cc",
	"genidlest/45rib/MPI/opt=true/4":      "d6bc516bf30921c200ba5b8012e3420a443e0a5d797bcb9a1038d932b38c0d2a",
	"genidlest/45rib/MPI/opt=true/8":      "10c96b41df491cbd2aa1651082424ca6b1d132e0a6a5fbde64595758b336012e",
	"genidlest/45rib/Hybrid/opt=false/4":  "5c1836acbbd3c4931fedeb60d98a61c13115a13a7040e656ad14b2bc79ee0309",
	"genidlest/45rib/Hybrid/opt=false/8":  "18460a80a7e4de77ee335f12d8bfb0050f236c9c08348a6a9ed0901aa276d32d",
	"genidlest/45rib/Hybrid/opt=true/4":   "30b241e1be7aa8f8e1f767fb985a410c7f4ea642c7c13b7e64740064ec4e0684",
	"genidlest/45rib/Hybrid/opt=true/8":   "a9100712c5e90735e56195b990794e8207d25b1e28f70c471b1e5b8bab6bff5a",
	"genidlest/90rib/OpenMP/opt=false/16": "5a620fc6903ffc17c8cb1e39f773749f4031651a0b4ae43f431b5d746e4a4f12",
	"genidlest/90rib/OpenMP/opt=false/32": "581cd8ab1c8d2e7ada70c137a4fbc25d1a360fdf1c5db68370cd64a5d2488d0c",
	"genidlest/90rib/OpenMP/opt=true/16":  "4d338a3732abfb032a78b96aa61fe099dfa9ee2f2bec454dda64a4c0ecfcbfbe",
	"genidlest/90rib/OpenMP/opt=true/32":  "de44a971aa84b77ae05cabb26171b0ca63a8f04b4753cb92c57bac13e5dd47bb",
	"genidlest/90rib/MPI/opt=false/16":    "13d3d7cd2670e5142c62a1c112b5d065f0d899f5135660ad698350f411cb49ea",
	"genidlest/90rib/MPI/opt=false/32":    "1d1796c0640125ba1c278c6663d4c0056c3f384e6065390debd00737bb58c334",
	"genidlest/90rib/MPI/opt=true/16":     "f620c1d6788ad451e9305effcf32c358793c001886f8de0cdac09ff1f1b73a5f",
	"genidlest/90rib/MPI/opt=true/32":     "1677d80a8cc7e58a607ee0f625d8ac08400d89d1793e03104b7c55f8a10d8fd7",
	"genidlest/90rib/Hybrid/opt=false/16": "53422bf7eefb95564334a16d4a97c5a408b9ceb00e770e22db309611f072bc8f",
	"genidlest/90rib/Hybrid/opt=false/32": "53fda4ae9925a52e1830c63216f72faa1141dee40577a1559a277de85a64a10d",
	"genidlest/90rib/Hybrid/opt=true/16":  "7ddd1bee9af09c83cacb2ae52d941c05d8402d5555f98a866a37728c0d74eb51",
	"genidlest/90rib/Hybrid/opt=true/32":  "34fc6dc4d7c2b9c85da6185a9cb7be1ef0997bab3775a7150b5a6c67bb8a2d36",
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

// simFixture is the run checked in as a %PDMFCOL2 file, written by the last
// encoder that wrote that form (commit 2565d7f).
const simFixture = "genidlest/45rib/OpenMP/opt=false/4"

// The checked-in simulator trial, in the previous encoding, still decodes to
// what the simulator computes for the run it names — value for value — and
// encodes, in the current form, to the bytes pinned for that run.
func TestSimulatorFixture(t *testing.T) {
	file, err := os.ReadFile(filepath.Join("..", "perfdmf", "testdata", "col2_sim.pdmf"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(file[:32], []byte("%PDMFCOL2\n")) {
		t.Fatal("col2_sim.pdmf is not in the previous encoding")
	}
	trial, err := perfdmf.DecodeTrial(file)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := valueDigest(trial); err != nil || got != pinnedValues[simFixture] {
		t.Errorf("col2_sim.pdmf holds %q, %s is pinned at %q (err=%v)", got, simFixture, pinnedValues[simFixture], err)
	}
	enc, err := perfdmf.EncodeTrial(trial)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(enc)); got != pinnedTrials[simFixture] || len(enc) >= len(file) {
		t.Errorf("col2_sim.pdmf re-encodes to %q, %d B from %d B; pinned %q", got, len(enc), len(file), pinnedTrials[simFixture])
	}
}
