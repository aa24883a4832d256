package script_test

// The tree-walking oracle over the shipped analysis scripts. The in-package
// differential suite compares the oracle with the compiled engine on
// language corners; this file runs it where the host API is real — a
// core.Session with the knowledge base installed — and holds its outcome to
// the golden files internal/diagnosis keeps for the compiled engine
// (internal/diagnosis/testdata/asset_outcomes, recorded when the tree-walker
// was still selectable and all engine combinations agreed). It has to live
// here: the oracle is test-only code of this package, reachable from outside
// it only through export_test.go.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"perfknow/internal/apps/genidlest"
	"perfknow/internal/apps/msa"
	"perfknow/internal/core"
	"perfknow/internal/diagnosis"
	"perfknow/internal/machine"
	"perfknow/internal/openuh"
	"perfknow/internal/perfdmf"
	"perfknow/internal/script"
	"perfknow/internal/sim"
)

func altix() machine.Config { return machine.Altix(16, 2) }

func genTrial(t *testing.T, mode genidlest.Mode, threads int, opt bool) *perfdmf.Trial {
	t.Helper()
	cfg := genidlest.DefaultConfig(genidlest.Rib90(), mode, threads)
	cfg.Optimized = opt
	tr, err := genidlest.Run(altix(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func saveGen(t *testing.T, s *core.Session, threads int, opt bool) *perfdmf.Trial {
	t.Helper()
	tr := genTrial(t, genidlest.OpenMP, threads, opt)
	if err := s.Repo.SaveContext(context.Background(), tr); err != nil {
		t.Fatal(err)
	}
	return tr
}

// assetScenarios is a copy of the table in
// internal/diagnosis/differential_test.go (a _test.go file cannot be
// imported); both are held to the same golden files.
var assetScenarios = []struct {
	name  string
	setup func(t *testing.T, s *core.Session) string
}{
	{"LoadBalanceStatic", func(t *testing.T, s *core.Session) string {
		tr, err := msa.Run(altix(), msa.Params{
			Sequences: 64, MeanLen: 120, LenJitter: 60, Seed: 42,
			Threads: 16, Schedule: sim.Schedule{Kind: sim.StaticSched},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Repo.SaveContext(context.Background(), tr); err != nil {
			t.Fatal(err)
		}
		diagnosis.SetArgs(s, []string{tr.App, tr.Experiment, tr.Name})
		return diagnosis.ScriptFiles()["load_balance.pes"]
	}},
	{"Inefficiency", func(t *testing.T, s *core.Session) string {
		tr := saveGen(t, s, 16, false)
		diagnosis.SetArgs(s, []string{tr.App, tr.Experiment, tr.Name})
		return diagnosis.ScriptFiles()["inefficiency.pes"]
	}},
	{"StallDecomposition", func(t *testing.T, s *core.Session) string {
		tr := saveGen(t, s, 16, false)
		diagnosis.SetArgs(s, []string{tr.App, tr.Experiment, tr.Name})
		return diagnosis.ScriptFiles()["stall_decomposition.pes"]
	}},
	{"StallsPerCycle", func(t *testing.T, s *core.Session) string {
		tr := saveGen(t, s, 16, false)
		diagnosis.SetArgs(s, []string{tr.App, tr.Experiment, tr.Name})
		return diagnosis.ScriptFiles()["stalls_per_cycle.pes"]
	}},
	{"MemoryAnalysisWithBaseline", func(t *testing.T, s *core.Session) string {
		tr := saveGen(t, s, 16, false)
		base := genTrial(t, genidlest.OpenMP, 1, false)
		base.Name = "base_1"
		if err := s.Repo.SaveContext(context.Background(), base); err != nil {
			t.Fatal(err)
		}
		diagnosis.SetArgs(s, []string{tr.App, tr.Experiment, tr.Name, "base_1"})
		return diagnosis.ScriptFiles()["memory_analysis.pes"]
	}},
	{"PowerLevels", func(t *testing.T, s *core.Session) string {
		for _, lvl := range []openuh.OptLevel{openuh.O0, openuh.O1, openuh.O2, openuh.O3} {
			cfg := genidlest.DefaultConfig(genidlest.Rib90(), genidlest.MPI, 16)
			cfg.OptLevel = lvl
			tr, err := genidlest.Run(altix(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			tr.Name = lvl.String()
			if err := s.Repo.SaveContext(context.Background(), tr); err != nil {
				t.Fatal(err)
			}
		}
		diagnosis.SetArgs(s, []string{"Fluid Dynamic", "rib 90rib"})
		return diagnosis.ScriptFiles()["power_levels.pes"]
	}},
	{"Synchronization", func(t *testing.T, s *core.Session) string {
		tr := perfdmf.NewTrial("app", "sync", "t", 4)
		tr.AddMetric(perfdmf.TimeMetric)
		tr.AddMetric("CPU_CYCLES")
		tr.AddMetric("OMP_CRITICAL_CYCLES")
		main := tr.EnsureEvent("main")
		locky := tr.EnsureEvent("update_shared")
		for th := 0; th < 4; th++ {
			main.SetValue(perfdmf.TimeMetric, th, 1000, 100)
			main.SetValue("CPU_CYCLES", th, 1500000, 150000)
			locky.SetValue(perfdmf.TimeMetric, th, 600, 600)
			locky.SetValue("CPU_CYCLES", th, 900000, 900000)
			locky.SetValue("OMP_CRITICAL_CYCLES", th, 360000, 360000)
		}
		if err := s.Repo.SaveContext(context.Background(), tr); err != nil {
			t.Fatal(err)
		}
		diagnosis.SetArgs(s, []string{"app", "sync", "t"})
		return diagnosis.ScriptFiles()["synchronization.pes"]
	}},
	{"ThreadClusters", func(t *testing.T, s *core.Session) string {
		tr := saveGen(t, s, 16, false)
		diagnosis.SetArgs(s, []string{tr.App, tr.Experiment, tr.Name, "2"})
		return diagnosis.ScriptFiles()["thread_clusters.pes"]
	}},
}

func TestTreeWalkerAssetScripts(t *testing.T) {
	for _, sc := range assetScenarios {
		t.Run(sc.name, func(t *testing.T) {
			s := core.NewSession(nil)
			var out bytes.Buffer
			s.SetOutput(&out)
			diagnosis.Install(s, "")
			err := script.RunTreeWalk(s.Interp, sc.setup(t, s))

			// The rendering of internal/diagnosis's diffOutcome.golden.
			var b strings.Builder
			b.WriteString("error: ")
			if err != nil {
				b.WriteString(err.Error())
			}
			var fired []string
			var recs []string
			if res := s.LastResult(); res != nil {
				fired = res.Fired
				for _, r := range res.Recommendations {
					recs = append(recs, r.Category+": "+r.Text)
				}
			}
			fmt.Fprintf(&b, "\nfired (%d):\n", len(fired))
			for _, f := range fired {
				b.WriteString("  " + f + "\n")
			}
			fmt.Fprintf(&b, "recommendations (%d):\n", len(recs))
			for _, r := range recs {
				b.WriteString("  " + r + "\n")
			}
			b.WriteString("output:\n" + out.String())

			path := filepath.Join("..", "diagnosis", "testdata", "asset_outcomes", sc.name+".golden")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := b.String(); got != string(want) {
				t.Fatalf("tree-walker outcome differs from %s:\n--- got\n%s\n--- want\n%s", path, got, want)
			}
		})
	}
}
