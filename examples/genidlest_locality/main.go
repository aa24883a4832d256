// Case study B (§III-B): data-locality tuning of the GenIDLEST fluid
// dynamics solver.
//
// The unoptimized OpenMP port initializes its arrays sequentially — so
// first-touch places every page on node 0 and all other nodes pay remote
// NUMAlink latency plus memory-controller queueing — and serializes its
// ghost-cell boundary copies on the master thread. This example reproduces
// the Fig. 5(b) scaling gap against MPI, runs the paper's three-step
// metric pipeline (inefficiency → stall decomposition → memory analysis),
// and shows the rules recommending the two fixes; the optimized run then
// closes the gap.
//
// Run with: go run ./examples/genidlest_locality
package main

import (
	"fmt"
	"log"

	"perfknow"
)

func main() {
	cfg := perfknow.AltixConfig(16, 2)

	run := func(mode perfknow.GenIDLESTConfig) *perfknow.Trial {
		tr, err := perfknow.RunGenIDLEST(cfg, mode)
		if err != nil {
			log.Fatal(err)
		}
		return tr
	}
	mainSec := func(t *perfknow.Trial) float64 {
		return t.Event("main").Inclusive[perfknow.TimeMetric][0] / 1e6
	}

	// Fig. 5(b): 90rib scaling, unoptimized vs optimized OpenMP vs MPI.
	fmt.Println("90rib total runtime in seconds (Fig. 5b):")
	fmt.Printf("%8s %14s %14s %14s\n", "threads", "unopt OpenMP", "opt OpenMP", "MPI")
	var unopt16, mpi16 *perfknow.Trial
	for _, th := range []int{1, 2, 4, 8, 16, 32} {
		u := perfknow.GenIDLESTDefaults(perfknow.Rib90(), perfknow.ModeOpenMP, th)
		o := u
		o.Optimized = true
		m := perfknow.GenIDLESTDefaults(perfknow.Rib90(), perfknow.ModeMPI, th)
		tu, to, tm := run(u), run(o), run(m)
		fmt.Printf("%8d %14.3f %14.3f %14.3f\n", th, mainSec(tu), mainSec(to), mainSec(tm))
		if th == 16 {
			unopt16, mpi16 = tu, tm
		}
	}
	fmt.Printf("unoptimized OpenMP lags MPI by %.2fx at 16 processors (paper: 11.16x)\n\n",
		mainSec(unopt16)/mainSec(mpi16))

	// The paper's three-step diagnosis on the unoptimized 16-thread run.
	repo := perfknow.NewRepository()
	base := perfknow.GenIDLESTDefaults(perfknow.Rib90(), perfknow.ModeOpenMP, 1)
	tbase := run(base)
	tbase.Name = "baseline_1"
	for _, t := range []*perfknow.Trial{unopt16, tbase} {
		if err := repo.Save(t); err != nil {
			log.Fatal(err)
		}
	}
	s := perfknow.NewSession(repo)
	perfknow.InstallKnowledgeBase(s, "")

	steps := []struct {
		title, script string
		args          []string
	}{
		{"step 1: inefficiency metric", perfknow.ScriptInefficiency,
			[]string{unopt16.App, unopt16.Experiment, unopt16.Name}},
		{"step 2: stall decomposition", perfknow.ScriptStallDecomposition,
			[]string{unopt16.App, unopt16.Experiment, unopt16.Name}},
		{"step 3: memory analysis + scaling", perfknow.ScriptMemoryAnalysis,
			[]string{unopt16.App, unopt16.Experiment, unopt16.Name, "baseline_1"}},
	}
	for _, st := range steps {
		fmt.Println("==", st.title)
		perfknow.SetScriptArgs(s, st.args)
		if err := s.RunScript(st.script); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
}
