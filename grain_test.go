package perfknow_test

import (
	"testing"

	"perfknow/internal/analysis"
	"perfknow/internal/apps/genidlest"
	"perfknow/internal/apps/msa"
	"perfknow/internal/diagnosis"
	"perfknow/internal/experiments"
	"perfknow/internal/machine"
	"perfknow/internal/obs"
	"perfknow/internal/parallel"
	"perfknow/internal/perfdmf"
	"perfknow/internal/rules"
	"perfknow/internal/sim"
)

// One grain of concurrency: a simulation, a fact builder and an analysis
// operation run on their caller and leave the worker pool's counter where
// it was at any -j; a batch of experiments moves it.
func TestEnginesStartNoGoroutines(t *testing.T) {
	defer parallel.SetDefaultWorkers(0)
	parallel.SetDefaultWorkers(8)
	reg := obs.NewRegistry()
	parallel.RegisterMetrics(reg)
	workers := func() float64 { return reg.Snapshot().Gauges["parallel_workers_total"] }

	mcfg := machine.Altix(8, 2)
	var base, scaled *perfdmf.Trial
	eng := rules.NewEngine()
	steps := []struct {
		name string
		run  func() error
	}{
		{"genidlest.Run 1 thread", func() (err error) {
			base, err = genidlest.Run(mcfg, genidlest.DefaultConfig(genidlest.Rib45(), genidlest.OpenMP, 1))
			return err
		}},
		{"genidlest.Run", func() (err error) {
			scaled, err = genidlest.Run(mcfg, genidlest.DefaultConfig(genidlest.Rib45(), genidlest.OpenMP, 8))
			return err
		}},
		{"genidlest.Run MPI", func() error {
			_, err := genidlest.Run(mcfg, genidlest.DefaultConfig(genidlest.Rib45(), genidlest.MPI, 8))
			return err
		}},
		{"msa.Run", func() error {
			_, err := msa.Run(mcfg, msa.DefaultParams(8, sim.Schedule{Kind: sim.StaticSched}))
			return err
		}},
		{"AssertInefficiencyFacts", func() error { _, err := diagnosis.AssertInefficiencyFacts(eng, scaled); return err }},
		{"AssertStallSourceFacts", func() error { _, err := diagnosis.AssertStallSourceFacts(eng, scaled); return err }},
		{"AssertLocalityFacts", func() error { _, err := diagnosis.AssertLocalityFacts(eng, scaled); return err }},
		{"AssertSyncFacts", func() error { _, err := diagnosis.AssertSyncFacts(eng, scaled); return err }},
		{"AssertScalingFacts", func() error { diagnosis.AssertScalingFacts(eng, base, scaled); return nil }},
		{"AssertClusterFacts", func() error {
			_, err := diagnosis.AssertClusterFacts(eng, scaled, perfdmf.TimeMetric, 2)
			return err
		}},
		{"ExclusiveStats", func() error { analysis.ExclusiveStats(scaled, perfdmf.TimeMetric); return nil }},
		{"InclusiveStats", func() error { analysis.InclusiveStats(scaled, perfdmf.TimeMetric); return nil }},
		{"KMeans", func() error { _, err := analysis.KMeans(scaled, perfdmf.TimeMetric, 3, 0); return err }},
	}
	for _, s := range steps {
		before := workers()
		if err := s.run(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if got := workers(); got != before {
			t.Errorf("%s: parallel_workers_total %v -> %v, want unchanged", s.name, before, got)
		}
	}
	if n := len(eng.Facts()); n == 0 {
		t.Fatal("the fact builders asserted nothing")
	}

	parallel.SetDefaultWorkers(2)
	before := workers()
	if _, err := experiments.RunAll("F4"); err != nil {
		t.Fatal(err)
	}
	if got := workers(); got < before+2 {
		t.Errorf("RunAll at -j 2: parallel_workers_total %v -> %v, want at least 2 more", before, got)
	}
}
