// Quickstart: the Fig. 1 flow end to end on a small compiled program.
//
// A tiny UH-language program is compiled with the OpenUH-style compiler
// (auto-instrumentation included), executed on the simulated Altix, stored
// in a PerfDMF repository, and then analyzed by the PerfExplorer sample
// script — whose inference rules print explanations and recommendations.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"perfknow"
)

const source = `
program quickstart
proc main() {
    loop timestep 25 {
        call sweep
    }
}
proc sweep() {
    parallel loop rows 128 schedule(dynamic,1) {
        compute fp=3000 int=700 loads=1200 stores=600 branches=96 \
                region=grid off=0 len=4194304 reuse=8 dep=0.35 firsttouch
    }
}
`

func main() {
	// 1. Compile: parse, optimize at -O2, insert instrumentation.
	prog, err := perfknow.ParseSource(source)
	if err != nil {
		log.Fatal(err)
	}
	ex, scores, err := perfknow.Compile(prog, perfknow.O2, perfknow.DefaultInstrumentation(), nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled %q at %s; %d regions scored for instrumentation\n",
		prog.Name, ex.Level, len(scores))

	// 2. Execute on a simulated 8-node Altix with 8 OpenMP threads.
	m := perfknow.NewMachine(perfknow.AltixConfig(8, 2))
	eng := perfknow.NewEngine(m, 8)
	trial, err := ex.Run(eng, "quickstart", "demo", "8_O2")
	if err != nil {
		log.Fatal(err)
	}
	main := trial.MainEvent(perfknow.TimeMetric)
	fmt.Printf("executed on 8 threads: %s ran %.2f ms with %d instrumented events\n",
		main.Name, meanOf(main.Inclusive[perfknow.TimeMetric])/1e3, len(trial.Events))

	// 3. Store the profile and analyze it with the Fig. 1 sample script.
	repo := perfknow.NewRepository()
	if err := repo.Save(trial); err != nil {
		log.Fatal(err)
	}
	s := perfknow.NewSession(repo)
	perfknow.InstallKnowledgeBase(s, "")
	perfknow.SetScriptArgs(s, []string{trial.App, trial.Experiment, trial.Name})
	fmt.Println("\nrunning assets/scripts/stalls_per_cycle.pes:")
	if err := s.RunScript(perfknow.ScriptStallsPerCycle); err != nil {
		log.Fatal(err)
	}
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
