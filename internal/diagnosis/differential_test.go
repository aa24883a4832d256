package diagnosis

// End-to-end harness over the shipped analysis scripts: every scenario runs
// in a fresh session and its outcome — error text, fired rules in order,
// recommendations, session output bytes — must equal
// testdata/asset_outcomes/<scenario>.golden. The goldens were recorded while
// the tree had two script engines and two rule matchers, after all four
// combinations produced the same outcome, and have not changed since; they
// are what the single engines are held to. internal/script/asset_test.go
// holds the tree-walking oracle to the same files. Re-record with -update
// only for a deliberate change of a script, a rule file or the simulator.

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"perfknow/internal/apps/genidlest"
	"perfknow/internal/apps/msa"
	"perfknow/internal/core"
	"perfknow/internal/openuh"
	"perfknow/internal/perfdmf"
	"perfknow/internal/sim"
)

var updateGoldens = flag.Bool("update", false, "rewrite testdata/asset_outcomes/*.golden")

// goldenDir is absolute, resolved before any test changes directory.
var goldenDir, _ = filepath.Abs(filepath.Join("testdata", "asset_outcomes"))

// diffOutcome captures everything observable from one script run.
type diffOutcome struct {
	out   string
	fired []string
	recs  []string
	err   string
}

// golden renders the outcome as the text of its golden file: error text,
// fired rules in order, recommendations, then the raw session output last
// so its bytes are kept as they are.
func (o diffOutcome) golden() string {
	var b strings.Builder
	fmt.Fprintf(&b, "error: %s\n", o.err)
	fmt.Fprintf(&b, "fired (%d):\n", len(o.fired))
	for _, f := range o.fired {
		b.WriteString("  " + f + "\n")
	}
	fmt.Fprintf(&b, "recommendations (%d):\n", len(o.recs))
	for _, r := range o.recs {
		b.WriteString("  " + r + "\n")
	}
	b.WriteString("output:\n" + o.out)
	return b.String()
}

// runScenario sets a scenario up in a fresh session, runs the script it
// returns, and captures the observable outcome.
func runScenario(t *testing.T, scenario func(t *testing.T, s *core.Session) string) diffOutcome {
	t.Helper()
	s, buf := session(t)
	err := s.RunScript(scenario(t, s))
	o := diffOutcome{out: buf.String()}
	if err != nil {
		o.err = err.Error()
	}
	if res := s.LastResult(); res != nil {
		o.fired = append(o.fired, res.Fired...)
		for _, r := range res.Recommendations {
			o.recs = append(o.recs, r.Category+": "+r.Text)
		}
	}
	return o
}

// checkGolden compares an outcome with the golden file named after the
// running subtest, or rewrites the file under -update.
func checkGolden(t *testing.T, o diffOutcome) {
	t.Helper()
	name := t.Name()[strings.LastIndexByte(t.Name(), '/')+1:]
	path := filepath.Join(goldenDir, name+".golden")
	if *updateGoldens {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(o.golden()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := o.golden(); got != string(want) {
		t.Fatalf("outcome differs from %s:\n--- got\n%s\n--- want\n%s", path, got, want)
	}
}

func saveGen(t *testing.T, s *core.Session, threads int, opt bool) *perfdmf.Trial {
	t.Helper()
	tr := genTrial(t, genidlest.OpenMP, threads, opt)
	if err := s.Repo.SaveContext(context.Background(), tr); err != nil {
		t.Fatal(err)
	}
	return tr
}

// assetScenarios are the eight shipped-script scenarios: each saves the
// trials its script reads, sets the script arguments, and returns the script
// source. internal/script/asset_test.go carries a copy (a _test.go file
// cannot be imported); both are held to the same golden files, so the copies
// cannot drift apart unnoticed.
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
		SetArgs(s, []string{tr.App, tr.Experiment, tr.Name})
		return ScriptFiles()["load_balance.pes"]
	}},
	{"Inefficiency", func(t *testing.T, s *core.Session) string {
		tr := saveGen(t, s, 16, false)
		SetArgs(s, []string{tr.App, tr.Experiment, tr.Name})
		return ScriptFiles()["inefficiency.pes"]
	}},
	{"StallDecomposition", func(t *testing.T, s *core.Session) string {
		tr := saveGen(t, s, 16, false)
		SetArgs(s, []string{tr.App, tr.Experiment, tr.Name})
		return ScriptFiles()["stall_decomposition.pes"]
	}},
	{"StallsPerCycle", func(t *testing.T, s *core.Session) string {
		tr := saveGen(t, s, 16, false)
		SetArgs(s, []string{tr.App, tr.Experiment, tr.Name})
		return ScriptFiles()["stalls_per_cycle.pes"]
	}},
	{"MemoryAnalysisWithBaseline", func(t *testing.T, s *core.Session) string {
		tr := saveGen(t, s, 16, false)
		base := genTrial(t, genidlest.OpenMP, 1, false)
		base.Name = "base_1"
		if err := s.Repo.SaveContext(context.Background(), base); err != nil {
			t.Fatal(err)
		}
		SetArgs(s, []string{tr.App, tr.Experiment, tr.Name, "base_1"})
		return ScriptFiles()["memory_analysis.pes"]
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
		SetArgs(s, []string{"Fluid Dynamic", "rib 90rib"})
		return ScriptFiles()["power_levels.pes"]
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
		SetArgs(s, []string{"app", "sync", "t"})
		return ScriptFiles()["synchronization.pes"]
	}},
	{"ThreadClusters", func(t *testing.T, s *core.Session) string {
		tr := saveGen(t, s, 16, false)
		SetArgs(s, []string{tr.App, tr.Experiment, tr.Name, "2"})
		return ScriptFiles()["thread_clusters.pes"]
	}},
}

// TestDifferentialAssetScripts runs the scenarios from an empty working
// directory: on the built-in knowledge base a script reads nothing from it.
func TestDifferentialAssetScripts(t *testing.T) {
	t.Chdir(t.TempDir())
	for _, sc := range assetScenarios {
		t.Run(sc.name, func(t *testing.T) { checkGolden(t, runScenario(t, sc.setup)) })
	}
}

// TestDifferentialAssetScriptsNonEmpty pins that the scenarios above
// actually exercise the knowledge base: the headline scripts must fire at
// least one rule, or the golden comparison would be vacuous.
func TestDifferentialAssetScriptsNonEmpty(t *testing.T) {
	o := runScenario(t, func(t *testing.T, s *core.Session) string {
		tr := saveGen(t, s, 16, false)
		SetArgs(s, []string{tr.App, tr.Experiment, tr.Name})
		return ScriptFiles()["inefficiency.pes"]
	})
	if o.err != "" {
		t.Fatalf("inefficiency script failed: %s", o.err)
	}
	if len(o.fired) == 0 || !strings.Contains(o.out, "higher than average inefficiency") {
		t.Fatalf("inefficiency scenario fired nothing:\n%s", o.out)
	}
	t.Logf("fired=%d", len(o.fired))
}
