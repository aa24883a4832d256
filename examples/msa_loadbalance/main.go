// Case study A (§III-A): OpenMP load-balance tuning of the multiple
// sequence alignment application.
//
// The Smith-Waterman distance-matrix loop has triangular per-iteration
// costs, so the default static-even schedule leaves later threads idle.
// This example runs the workload under several schedules, shows the scaling
// behaviour of Fig. 4(b), and then lets the captured load-imbalance rule
// diagnose the static run and recommend the fix the paper found by hand:
// dynamic scheduling with chunk size 1.
//
// Run with: go run ./examples/msa_loadbalance
package main

import (
	"fmt"
	"log"

	"perfknow"
)

func main() {
	cfg := perfknow.AltixConfig(16, 2)

	// Fig. 4(b): relative efficiency by schedule and thread count.
	fmt.Println("relative efficiency, 400-sequence problem (Fig. 4b):")
	fmt.Printf("%-12s %6s %6s %6s %6s\n", "schedule", "2", "4", "8", "16")
	for _, schedStr := range []string{"static", "dynamic,1", "dynamic,16", "guided"} {
		sched := perfknow.MustSchedule(schedStr)
		params := perfknow.MSAParams{
			Sequences: 400, MeanLen: 450, LenJitter: 220, Seed: 42, Schedule: sched,
		}
		eff, err := perfknow.MSAEfficiencySweep(cfg, params, []int{2, 4, 8, 16})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %5.1f%% %5.1f%% %5.1f%% %5.1f%%\n",
			schedStr, 100*eff[2], 100*eff[4], 100*eff[8], 100*eff[16])
	}

	// Fig. 4(a): diagnose the static run with the captured knowledge.
	static, err := perfknow.RunMSA(cfg, perfknow.MSAParams{
		Sequences: 400, MeanLen: 450, LenJitter: 220, Seed: 42,
		Threads: 16, Schedule: perfknow.MustSchedule("static"),
	})
	if err != nil {
		log.Fatal(err)
	}
	repo := perfknow.NewRepository()
	if err := repo.Save(static); err != nil {
		log.Fatal(err)
	}

	s := perfknow.NewSession(repo)
	perfknow.InstallKnowledgeBase(s, "")
	perfknow.SetScriptArgs(s, []string{static.App, static.Experiment, static.Name})

	fmt.Println("\ndiagnosing the static-even run (load_balance.pes):")
	if err := s.RunScript(perfknow.ScriptLoadBalance); err != nil {
		log.Fatal(err)
	}

	// The load-balance analysis is also available programmatically.
	fmt.Println("\nper-event imbalance (stddev/mean of per-thread time):")
	for _, lb := range perfknow.LoadBalanceAnalysis(static, perfknow.TimeMetric) {
		if lb.FractionOfTotal < 0.05 {
			continue
		}
		fmt.Printf("  %-18s ratio=%.3f share=%.1f%%\n", lb.Event, lb.Ratio, 100*lb.FractionOfTotal)
	}
}
