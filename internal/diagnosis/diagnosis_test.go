package diagnosis

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"perfknow/internal/apps/genidlest"
	"perfknow/internal/apps/msa"
	"perfknow/internal/core"
	"perfknow/internal/machine"
	"perfknow/internal/openuh"
	"perfknow/internal/perfdmf"
	"perfknow/internal/power"
	"perfknow/internal/rules"
	"perfknow/internal/sim"
)

func altix() machine.Config { return machine.Altix(16, 2) }

// session builds a core session with the knowledge base installed and the
// assets written to a temp dir.
func session(t *testing.T) (*core.Session, *bytes.Buffer, string) {
	t.Helper()
	dir := t.TempDir()
	if err := WriteAssets(dir); err != nil {
		t.Fatal(err)
	}
	s := core.NewSession(nil)
	var buf bytes.Buffer
	s.SetOutput(&buf)
	Install(s, dir+"/rules")
	return s, &buf, dir
}

func TestWriteAssets(t *testing.T) {
	_, _, dir := session(t)
	for name := range RuleFiles() {
		eng := rules.NewEngine()
		if err := eng.LoadFile(dir + "/rules/" + name); err != nil {
			t.Fatalf("rule file %s does not parse: %v", name, err)
		}
		if len(eng.Rules()) == 0 {
			t.Fatalf("rule file %s has no rules", name)
		}
	}
	for name := range ScriptFiles() {
		if !strings.HasSuffix(name, ".pes") {
			t.Fatalf("script %s has wrong extension", name)
		}
	}
}

// TestAssetsEmbedded: RuleFiles and ScriptFiles hold exactly the files of
// assets/rules and assets/scripts, byte for byte, so a file the embed
// pattern skips, or one added to the build but not the tree, fails here.
func TestAssetsEmbedded(t *testing.T) {
	for dir, embedded := range map[string]map[string]string{"rules": RuleFiles(), "scripts": ScriptFiles()} {
		entries, err := os.ReadDir(filepath.Join("..", "..", "assets", dir))
		if err != nil {
			t.Fatal(err)
		}
		onDisk := make(map[string]bool, len(entries))
		for _, e := range entries {
			onDisk[e.Name()] = true
			data, err := os.ReadFile(filepath.Join("..", "..", "assets", dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			src, ok := embedded[e.Name()]
			switch {
			case !ok:
				t.Errorf("assets/%s/%s is not embedded", dir, e.Name())
			case src != string(data):
				t.Errorf("assets/%s/%s differs from its embedded copy", dir, e.Name())
			}
		}
		for name := range embedded {
			if !onDisk[name] {
				t.Errorf("embedded %s/%s is not in assets/%s", dir, name, dir)
			}
		}
	}
}

// --- Case study A: MSA load imbalance ---------------------------------

func TestCaseStudyA_LoadImbalance(t *testing.T) {
	s, buf, _ := session(t)

	// Static scheduling: the rule must fire and recommend dynamic.
	static, err := msa.Run(altix(), msa.Params{
		Sequences: 64, MeanLen: 120, LenJitter: 60, Seed: 42,
		Threads: 16, Schedule: sim.Schedule{Kind: sim.StaticSched},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Repo.SaveContext(context.Background(), static); err != nil {
		t.Fatal(err)
	}
	SetArgs(s, []string{static.App, static.Experiment, static.Name})
	if err := s.RunScript(ScriptFiles()["load_balance.pes"]); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Load imbalance detected: pairwise_inner") {
		t.Fatalf("load imbalance rule did not fire:\n%s", out)
	}
	if !strings.Contains(out, "negatively correlated") {
		t.Fatalf("correlation explanation missing:\n%s", out)
	}
	recs := s.LastResult().Recommendations
	foundSched := false
	for _, r := range recs {
		if r.Category == "scheduling" && strings.Contains(r.Text, "dynamic,1") {
			foundSched = true
		}
	}
	if !foundSched {
		t.Fatalf("no dynamic scheduling recommendation: %+v", recs)
	}
}

func TestCaseStudyA_DynamicIsQuiet(t *testing.T) {
	s, buf, _ := session(t)
	dynamic, err := msa.Run(altix(), msa.Params{
		Sequences: 64, MeanLen: 120, LenJitter: 60, Seed: 42,
		Threads: 16, Schedule: sim.Schedule{Kind: sim.DynamicSched, Chunk: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Repo.SaveContext(context.Background(), dynamic); err != nil {
		t.Fatal(err)
	}
	SetArgs(s, []string{dynamic.App, dynamic.Experiment, dynamic.Name})
	if err := s.RunScript(ScriptFiles()["load_balance.pes"]); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "Load imbalance detected") {
		t.Fatalf("imbalance rule fired on a balanced schedule:\n%s", buf.String())
	}
}

// --- Case study B: GenIDLEST locality ---------------------------------

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

func TestCaseStudyB_StallsAndInefficiency(t *testing.T) {
	s, buf, _ := session(t)
	unopt := genTrial(t, genidlest.OpenMP, 16, false)
	if err := s.Repo.SaveContext(context.Background(), unopt); err != nil {
		t.Fatal(err)
	}

	SetArgs(s, []string{unopt.App, unopt.Experiment, unopt.Name})
	if err := s.RunScript(ScriptFiles()["inefficiency.pes"]); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "higher than average inefficiency") {
		t.Fatalf("inefficiency rule did not fire:\n%s", out)
	}
	// The solver procedures are the targets.
	hits := 0
	for _, ev := range genidlest.SolverEvents() {
		if strings.Contains(out, "Event "+ev+" has higher than average inefficiency") {
			hits++
		}
	}
	if hits < 2 {
		t.Fatalf("expected several solver procedures flagged, got %d:\n%s", hits, out)
	}

	buf.Reset()
	if err := s.RunScript(ScriptFiles()["stall_decomposition.pes"]); err != nil {
		t.Fatal(err)
	}
	out = buf.String()
	if !strings.Contains(out, "of stalls from L1D misses") {
		t.Fatalf("stall concentration rule did not fire:\n%s", out)
	}
	if !strings.Contains(out, "90% guideline") {
		t.Fatalf("90%% guideline not cited:\n%s", out)
	}
}

func TestCaseStudyB_LocalityAndSequentialBottleneck(t *testing.T) {
	s, buf, _ := session(t)
	unopt := genTrial(t, genidlest.OpenMP, 16, false)
	base := genTrial(t, genidlest.OpenMP, 1, false)
	if err := s.Repo.SaveContext(context.Background(), unopt); err != nil {
		t.Fatal(err)
	}
	base.Name = "base_1"
	if err := s.Repo.SaveContext(context.Background(), base); err != nil {
		t.Fatal(err)
	}

	SetArgs(s, []string{unopt.App, unopt.Experiment, unopt.Name, "base_1"})
	if err := s.RunScript(ScriptFiles()["memory_analysis.pes"]); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "low ratio of local to remote memory references") {
		t.Fatalf("locality rule did not fire:\n%s", out)
	}
	if !strings.Contains(out, "exchange_var__ is scaling very poorly") {
		t.Fatalf("sequential bottleneck rule did not fire for exchange_var__:\n%s", out)
	}
	// Recommendations cover first-touch initialization and parallelizing
	// the exchange.
	var cats []string
	for _, r := range s.LastResult().Recommendations {
		cats = append(cats, r.Category)
	}
	joined := strings.Join(cats, ",")
	if !strings.Contains(joined, "locality") || !strings.Contains(joined, "parallelism") {
		t.Fatalf("recommendation categories: %v", cats)
	}
}

func TestCaseStudyB_OptimizedIsQuieter(t *testing.T) {
	s, buf, _ := session(t)
	opt := genTrial(t, genidlest.OpenMP, 16, true)
	if err := s.Repo.SaveContext(context.Background(), opt); err != nil {
		t.Fatal(err)
	}
	SetArgs(s, []string{opt.App, opt.Experiment, opt.Name})
	if err := s.RunScript(ScriptFiles()["memory_analysis.pes"]); err != nil {
		t.Fatal(err)
	}
	// The optimized version must not trigger the locality diagnosis for the
	// solver procedures.
	for _, ev := range genidlest.SolverEvents() {
		if strings.Contains(buf.String(), "Event "+ev+" has a low ratio of local to remote") {
			t.Fatalf("locality rule fired for %s in the optimized run:\n%s", ev, buf.String())
		}
	}
}

// --- Case study C: power ------------------------------------------------

func TestCaseStudyC_PowerRules(t *testing.T) {
	s, buf, _ := session(t)
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
	if err := s.RunScript(ScriptFiles()["power_levels.pes"]); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "consumes the least energy") {
		t.Fatalf("low-energy rule did not fire:\n%s", out)
	}
	if !strings.Contains(out, "dissipates the least power") {
		t.Fatalf("low-power rule did not fire:\n%s", out)
	}
	// Table I's conclusion: the most aggressive level wins on energy and an
	// un/low-optimized level wins on power.
	var energyLevel, powerLevel string
	for _, r := range s.LastResult().Recommendations {
		switch r.Category {
		case "energy":
			energyLevel = r.Text
		case "power":
			powerLevel = r.Text
		}
	}
	if !strings.Contains(energyLevel, "-O3") && !strings.Contains(energyLevel, "-O2") {
		t.Fatalf("energy recommendation should name an aggressive level: %q", energyLevel)
	}
	if !strings.Contains(powerLevel, "-O0") && !strings.Contains(powerLevel, "-O2") && !strings.Contains(powerLevel, "-O1") {
		t.Fatalf("power recommendation: %q", powerLevel)
	}
}

func TestSyncOverheadRule(t *testing.T) {
	s, buf, _ := session(t)
	// Synthetic trial: a region that burns 40% of its cycles in a critical
	// section.
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
	eng := s.Engine
	if err := eng.LoadString(RuleFiles()["OpenUHRules.prl"]); err != nil {
		t.Fatal(err)
	}
	if _, err := AssertSyncFacts(eng, tr); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	_ = buf
	found := false
	for _, line := range res.Output {
		if strings.Contains(line, "update_shared") && strings.Contains(line, "critical") {
			found = true
		}
	}
	if !found {
		t.Fatalf("sync rule did not fire:\n%v", res.Output)
	}
	recOK := false
	for _, r := range res.Recommendations {
		if r.Category == "synchronization" {
			recOK = true
		}
	}
	if !recOK {
		t.Fatalf("no synchronization recommendation: %+v", res.Recommendations)
	}
}

func TestThreadClusterOutlierRule(t *testing.T) {
	// The unoptimized GenIDLEST OpenMP run has a master thread doing the
	// serialized exchange copies while workers wait: k-means with k=2 must
	// isolate thread 0 and the outlier rule must name it.
	s, buf, _ := session(t)
	unopt := genTrial(t, genidlest.OpenMP, 16, false)
	if err := s.Repo.SaveContext(context.Background(), unopt); err != nil {
		t.Fatal(err)
	}
	SetArgs(s, []string{unopt.App, unopt.Experiment, unopt.Name, "2"})
	if err := s.RunScript(ScriptFiles()["thread_clusters.pes"]); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Thread 0 behaves unlike the other 15 threads") {
		t.Fatalf("outlier rule did not isolate the master:\n%s", out)
	}
	if !strings.Contains(out, "mpi_send_recv_ko") && !strings.Contains(out, "exchange_var__") {
		t.Fatalf("dominant event should be the exchange path:\n%s", out)
	}
}

// --- Fact builders ------------------------------------------------------

func TestFactBuilderErrors(t *testing.T) {
	eng := rules.NewEngine()
	empty := perfdmf.NewTrial("a", "e", "t", 1)
	if _, err := AssertInefficiencyFacts(eng, empty); err == nil {
		t.Fatal("missing metrics accepted")
	}
	if _, err := AssertStallSourceFacts(eng, empty); err == nil {
		t.Fatal("missing metrics accepted")
	}
	if _, err := AssertLocalityFacts(eng, empty); err == nil {
		t.Fatal("missing metrics accepted")
	}
	if n := AssertPowerFacts(eng, nil); n != 0 {
		t.Fatal("empty power reports should assert nothing")
	}
}

func TestInefficiencyFormula(t *testing.T) {
	tr := perfdmf.NewTrial("a", "e", "t", 2)
	tr.AddMetric(metricCycles)
	tr.AddMetric(metricStalls)
	tr.AddMetric(metricFPOps)
	e := tr.EnsureEvent("x")
	for th := 0; th < 2; th++ {
		e.SetValue(metricCycles, th, 0, 1000)
		e.SetValue(metricStalls, th, 0, 400)
		e.SetValue(metricFPOps, th, 0, 50)
	}
	// Inefficiency = 50 * (400/1000) = 20.
	if got := Inefficiency(tr, e); got != 20 {
		t.Fatalf("Inefficiency = %g, want 20", got)
	}
	if got := Inefficiency(tr, tr.EnsureEvent("zero")); got != 0 {
		t.Fatalf("zero-cycle event inefficiency = %g", got)
	}
}

func TestMemoryStallsFormula(t *testing.T) {
	tr := perfdmf.NewTrial("a", "e", "t", 1)
	for _, m := range []string{"L2_DATA_REFERENCES_L2_ALL", "L2_MISSES", metricL3Miss, metricRemote, "DTLB_MISSES"} {
		tr.AddMetric(m)
	}
	e := tr.EnsureEvent("x")
	e.SetValue("L2_DATA_REFERENCES_L2_ALL", 0, 0, 1000)
	e.SetValue("L2_MISSES", 0, 0, 200)
	e.SetValue(metricL3Miss, 0, 0, 100)
	e.SetValue(metricRemote, 0, 0, 40)
	e.SetValue("DTLB_MISSES", 0, 0, 10)
	c := AltixCoefficients()
	want := 800*c.L2Lat + 100*c.L3Lat + 60*c.LocalLat + 40*c.RemoteLat + 10*c.TLBPenalty
	if got := MemoryStalls(e, c); got != want {
		t.Fatalf("MemoryStalls = %g, want %g", got, want)
	}
}

func TestAssertPowerFactsMarking(t *testing.T) {
	eng := rules.NewEngine()
	reports := map[string]*power.Report{
		"-O0": {WattsPerProc: 100, Joules: 1000, FLOPPerJoule: 1},
		"-O2": {WattsPerProc: 99, Joules: 100, FLOPPerJoule: 10},
		"-O3": {WattsPerProc: 103, Joules: 60, FLOPPerJoule: 19},
	}
	if n := AssertPowerFacts(eng, reports); n != 3 {
		t.Fatalf("asserted %d facts", n)
	}
	check := func(level, field string, want bool) {
		t.Helper()
		for _, f := range eng.FactsOfType("PowerFact") {
			if l, _ := f.Get("level"); l == level {
				if v, _ := f.Get(field); v != want {
					t.Fatalf("%s.%s = %v, want %v", level, field, v, want)
				}
				return
			}
		}
		t.Fatalf("no fact for level %s", level)
	}
	check("-O2", "lowestPower", true)
	check("-O3", "lowestEnergy", true)
	check("-O0", "lowestPower", false)
	// Balanced: -O2 has score (99/99)*(100/60)=1.67; -O3 (103/99)*(60/60)=1.04 → -O3.
	check("-O3", "balanced", true)
	check("-O2", "balanced", false)
}
