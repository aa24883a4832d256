// Case study C (§III-C): power and energy modeling of GenIDLEST across
// compiler optimization levels.
//
// The component power model (Eq. 1 and Eq. 2) estimates per-processor watts
// from counter access rates; energy follows from runtime. Reproducing
// Table I: power moves by only a few percent across -O0..-O3 (package power
// is idle-dominated) while energy and FLOP/Joule move by an order of
// magnitude, so the right level depends on whether the user optimizes for
// power, energy, or both — which the power rules then recommend.
//
// Run with: go run ./examples/power_model
package main

import (
	"fmt"
	"log"

	"perfknow"
)

func main() {
	cfg := perfknow.AltixConfig(16, 2)
	model := perfknow.Itanium2Power()
	repo := perfknow.NewRepository()

	levels := []perfknow.OptLevel{perfknow.O0, perfknow.O1, perfknow.O2, perfknow.O3}
	reports := map[perfknow.OptLevel]*perfknow.PowerReport{}
	var app, experiment string
	for _, lvl := range levels {
		c := perfknow.GenIDLESTDefaults(perfknow.Rib90(), perfknow.ModeMPI, 16)
		c.OptLevel = lvl
		trial, err := perfknow.RunGenIDLEST(cfg, c)
		if err != nil {
			log.Fatal(err)
		}
		trial.Name = lvl.String()
		app, experiment = trial.App, trial.Experiment
		if err := repo.Save(trial); err != nil {
			log.Fatal(err)
		}
		rep, err := model.Estimate(trial)
		if err != nil {
			log.Fatal(err)
		}
		reports[lvl] = rep
	}

	base := reports[perfknow.O0]
	fmt.Println("GenIDLEST 90rib, 16 MPI processes — relative to -O0 (Table I):")
	fmt.Printf("%-14s %8s %8s %8s %8s\n", "metric", "O0", "O1", "O2", "O3")
	row := func(name string, f func(*perfknow.PowerReport) float64) {
		fmt.Printf("%-14s", name)
		for _, lvl := range levels {
			fmt.Printf(" %8.3f", f(reports[lvl])/f(base))
		}
		fmt.Println()
	}
	row("Time", func(r *perfknow.PowerReport) float64 { return r.Seconds })
	row("Watts", func(r *perfknow.PowerReport) float64 { return r.WattsPerProc })
	row("Joules", func(r *perfknow.PowerReport) float64 { return r.Joules })
	row("FLOP/Joule", func(r *perfknow.PowerReport) float64 { return r.FLOPPerJoule })
	fmt.Printf("\nabsolute at -O0: %.1f W/processor over %.2f s → %.0f J\n\n",
		base.WattsPerProc, base.Seconds, base.Joules)

	// Let the power rules recommend levels.
	s := perfknow.NewSession(repo)
	perfknow.InstallKnowledgeBase(s, "")
	perfknow.SetScriptArgs(s, []string{app, experiment})
	fmt.Println("recommendations from assets/rules/PowerRules.prl:")
	if err := s.RunScript(perfknow.ScriptPowerLevels); err != nil {
		log.Fatal(err)
	}
}
