// Parametric study: the multi-experiment data collection the paper's
// introduction motivates. A Study sweeps the MSA workload over a
// (schedule × thread-count) grid, stamps every trial with its parameter
// point, stores everything in a PerfDMF repository, and extracts the
// efficiency series of Fig. 4(b) — then hands one imbalanced point to the
// knowledge base for diagnosis.
//
// Run with: go run ./examples/parametric_study
package main

import (
	"fmt"
	"log"
	"strconv"

	"perfknow"
)

func main() {
	cfg := perfknow.AltixConfig(16, 2)
	repo := perfknow.NewRepository()
	st := &perfknow.Study{Repo: repo, App: "MSAP", Experiment: "schedule x threads"}

	grid := perfknow.StudyGrid(map[string][]string{
		"schedule": {"static", "dynamic,1", "dynamic,16", "guided"},
		"threads":  {"1", "2", "4", "8", "16"},
	})
	fmt.Printf("running %d parameter points...\n", len(grid))
	trials, err := st.Run(grid, func(p perfknow.StudyPoint) (*perfknow.Trial, error) {
		threads, err := strconv.Atoi(p["threads"])
		if err != nil {
			return nil, err
		}
		sched, err := perfknow.ParseSchedule(p["schedule"])
		if err != nil {
			return nil, err
		}
		return perfknow.RunMSA(cfg, perfknow.MSAParams{
			Sequences: 400, MeanLen: 450, LenJitter: 220, Seed: 42,
			Threads: threads, Schedule: sched,
		})
	})
	if err != nil {
		log.Fatal(err)
	}

	series, err := perfknow.StudySeries(trials, "threads", perfknow.TimeMetric)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%-22s %10s %10s %10s %10s %10s\n", "schedule", "T(1)", "T(2)", "T(4)", "T(8)", "T(16)")
	for label, pts := range series {
		row := fmt.Sprintf("%-22s", label)
		base := pts[0].Y
		for _, pt := range pts {
			row += fmt.Sprintf(" %8.2fs", pt.Y/1e6)
			_ = base
		}
		fmt.Println(row)
	}
	fmt.Println("\nrelative efficiency at 16 threads:")
	for label, pts := range series {
		base := pts[0]
		last := pts[len(pts)-1]
		eff := base.Y / (last.X * last.Y) * base.X
		fmt.Printf("  %-22s %5.1f%%\n", label, 100*eff)
	}

	// Diagnose the imbalanced point straight out of the study repository.
	s := perfknow.NewSession(repo)
	perfknow.InstallKnowledgeBase(s, "")
	perfknow.SetScriptArgs(s, []string{"MSAP", "schedule x threads", "schedule=static,threads=16"})
	fmt.Println("\ndiagnosing point schedule=static,threads=16:")
	if err := s.RunScript(perfknow.ScriptLoadBalance); err != nil {
		log.Fatal(err)
	}
}
