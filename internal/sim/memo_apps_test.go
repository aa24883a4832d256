package sim_test

import (
	"bytes"
	"fmt"
	"testing"

	"perfknow/internal/apps/genidlest"
	"perfknow/internal/apps/msa"
	"perfknow/internal/machine"
	"perfknow/internal/perfdmf"
	"perfknow/internal/sim"
)

// appRuns is the 42 runs internal/apps' TestSimulatorOutputsPinned holds to
// the previous commit's bytes, enumerated the way its pinnedRuns does. That
// test says the memoised simulator computes what the parent computed; the
// one below says the memo is not why.
func appRuns() map[string]func() (*perfdmf.Trial, error) {
	mcfg := machine.Altix(16, 2)
	runs := map[string]func() (*perfdmf.Trial, error){}
	for seed := int64(1); seed <= 3; seed++ {
		for _, sched := range []sim.Schedule{{Kind: sim.StaticSched}, {Kind: sim.DynamicSched, Chunk: 1}, {Kind: sim.GuidedSched}} {
			for _, threads := range []int{4, 16} {
				p := msa.DefaultParams(threads, sched)
				p.Seed = seed
				runs[fmt.Sprintf("msa/seed%d/%s/%d", seed, sched, threads)] = func() (*perfdmf.Trial, error) { return msa.Run(mcfg, p) }
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
					runs[fmt.Sprintf("genidlest/%s/%s/opt=%v/%d", prob.Name, mode, opt, threads)] = func() (*perfdmf.Trial, error) { return genidlest.Run(mcfg, cfg) }
				}
			}
		}
	}
	return runs
}

// simulate runs one application, with the memo and the repeated-sweep replay
// of every engine it builds bypassed if asked — the plain engine, which
// prices every kernel execution of every sweep — and returns the encoded
// trial, how many kernels those engines priced and how many sweeps they
// charged without running them.
func simulate(t *testing.T, name string, run func() (*perfdmf.Trial, error), bypass bool) (enc []byte, priced, replayed uint64) {
	t.Helper()
	var engines []*sim.Engine
	sim.OnNewEngine(func(e *sim.Engine) {
		if bypass {
			e.BypassMemo()
			e.BypassRepeat()
		}
		engines = append(engines, e)
	})
	defer sim.OnNewEngine(nil)
	trial, err := run()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if enc, err = perfdmf.EncodeTrial(trial); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, e := range engines {
		priced += e.Priced()
		replayed += e.Replayed()
	}
	return enc, priced, replayed
}

func TestMemoLeavesPinnedRunsByteIdentical(t *testing.T) {
	runs := appRuns()
	if len(runs) != 42 {
		t.Fatalf("%d runs, TestSimulatorOutputsPinned pins 42", len(runs))
	}
	var found, replayed uint64
	for name, run := range runs {
		with, priced, skipped := simulate(t, name, run, false)
		without, executed, none := simulate(t, name, run, true)
		if !bytes.Equal(with, without) {
			t.Errorf("%s: the trial differs from the one simulated with every sweep run and every kernel execution priced", name)
		}
		if none != 0 {
			t.Fatalf("%s: the plain engine charged %d sweeps without running them", name, none)
		}
		found += executed - priced
		replayed += skipped
	}
	if found == 0 {
		t.Error("no kernel execution of any run was found in a memo: the two sides are the same simulator")
	}
	if replayed == 0 {
		t.Error("no sweep of any run was replayed: the two sides are the same simulator")
	}
}

// The run BenchmarkSimStudyPair and a study_pipeline iteration simulate:
// 16 442 kernel executions of 257 different (kernel, node) pairs.
func TestGenIDLESTPricesEachKernelOnce(t *testing.T) {
	run := func() (*perfdmf.Trial, error) {
		return genidlest.Run(machine.Altix(16, 2), genidlest.DefaultConfig(genidlest.Rib90(), genidlest.OpenMP, 16))
	}
	_, priced, _ := simulate(t, "memoised", run, false)
	_, executed, _ := simulate(t, "bypassed", run, true)
	if executed != 16442 || priced > 300 {
		t.Errorf("%d kernels priced for %d executions, want at most 300 for 16442", priced, executed)
	}
}

// The same run replays at least 20 of its 3×10 solver sweeps: the
// differential above compares two simulators, not one with itself.
func TestRepeatReplaysGenIDLESTSweeps(t *testing.T) {
	run := func() (*perfdmf.Trial, error) {
		return genidlest.Run(machine.Altix(16, 2), genidlest.DefaultConfig(genidlest.Rib90(), genidlest.OpenMP, 16))
	}
	_, _, replayed := simulate(t, "shipped", run, false)
	t.Logf("%d of 30 sweeps replayed", replayed)
	if replayed < 20 {
		t.Errorf("%d of 30 sweeps replayed, want at least 20", replayed)
	}
}
