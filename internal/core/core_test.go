package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"perfknow/internal/perfdmf"
	"perfknow/internal/rules"
)

// seedTrial stores a small trial: main encloses hot (high stalls) and cold.
func seedTrial(repo *perfdmf.Repository) *perfdmf.Trial {
	t := perfdmf.NewTrial("app", "exp", "t1", 4)
	t.AddMetric(perfdmf.TimeMetric)
	t.AddMetric("BACK_END_BUBBLE_ALL")
	t.AddMetric("CPU_CYCLES")
	main := t.EnsureEvent("main")
	hot := t.EnsureEvent("hot")
	cold := t.EnsureEvent("cold")
	cp := t.EnsureEvent("main => hot")
	for th := 0; th < 4; th++ {
		f := float64(th + 1)
		main.Calls[th] = 1
		main.SetValue(perfdmf.TimeMetric, th, 1000, 100)
		main.SetValue("BACK_END_BUBBLE_ALL", th, 300, 20)
		main.SetValue("CPU_CYCLES", th, 1500000, 100000)
		hot.SetValue(perfdmf.TimeMetric, th, 300*f, 300*f)
		hot.SetValue("BACK_END_BUBBLE_ALL", th, 200, 200)
		hot.SetValue("CPU_CYCLES", th, 400, 400) // stall/cycle = 0.5, far above main's 0.0002
		cold.SetValue(perfdmf.TimeMetric, th, 100, 100)
		cold.SetValue("BACK_END_BUBBLE_ALL", th, 1, 1)
		cold.SetValue("CPU_CYCLES", th, 400000, 400000)
		cp.SetValue(perfdmf.TimeMetric, th, 300*f, 300*f)
	}
	if err := repo.Save(t); err != nil {
		panic(err)
	}
	return t
}

func newTestSession(t *testing.T) (*Session, *bytes.Buffer) {
	t.Helper()
	repo := perfdmf.NewRepository()
	seedTrial(repo)
	s := NewSession(repo)
	var buf bytes.Buffer
	s.SetOutput(&buf)
	return s, &buf
}

func TestScriptUtilitiesAndTrialObject(t *testing.T) {
	s, buf := newTestSession(t)
	src := `
trial = Utilities.getTrial("app", "exp", "t1")
print(trial.name, trial.threads, trial.application)
print(trial.events)
print(trial.mainEvent)
print(trial.meanInclusive("main", "TIME"), trial.meanExclusive("cold", "TIME"))
print(trial.imbalanceRatio("hot", "TIME") > 0.25)
print(trial.isNested("main", "hot"), trial.isNested("hot", "main"))
print(trial.topN("TIME", 1))
print(trial.metadata("nope") == nil or trial.metadata("nope") == "")
`
	if err := s.RunScript(src); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"t1 4 app",
		"[cold, hot, main]",
		"main", // mainEvent by TIME
		"1000 100",
		"true",
		"true false",
		"[hot]",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestScriptListingHelpers(t *testing.T) {
	s, buf := newTestSession(t)
	src := `
print(Utilities.applications())
print(Utilities.experiments("app"))
print(Utilities.trials("app", "exp"))
`
	if err := s.RunScript(src); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "[app]") || !strings.Contains(buf.String(), "[t1]") {
		t.Fatalf("output: %s", buf.String())
	}
}

// failingListings is a store whose listings fail, as those of an
// unreachable remote store or of a cluster with every peer down do.
type failingListings struct{ *perfdmf.Repository }

var errUnreachable = errors.New("store unreachable")

func (failingListings) ListApplications() ([]string, error)      { return nil, errUnreachable }
func (failingListings) ListExperiments(string) ([]string, error) { return nil, errUnreachable }
func (failingListings) ListTrials(string, string) ([]string, error) {
	return nil, errUnreachable
}

// TestScriptListingFailureIsAnError: a listing that fails stops the script
// with the store's error; it never reads as an empty list.
func TestScriptListingFailureIsAnError(t *testing.T) {
	for _, call := range []string{
		`Utilities.applications()`,
		`Utilities.experiments("a")`,
		`Utilities.trials("a", "e")`,
	} {
		s := NewSession(failingListings{perfdmf.NewRepository()})
		var buf bytes.Buffer
		s.SetOutput(&buf)
		err := s.RunScript("print(" + call + ")")
		if err == nil || !strings.HasSuffix(err.Error(), ": "+errUnreachable.Error()) {
			t.Errorf("%s: RunScript = %v, want the listing's error", call, err)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: printed %q", call, buf.String())
		}
	}
}

func TestFig1ScriptEndToEnd(t *testing.T) {
	s, buf := newTestSession(t)
	s.Interp.SetGlobal("ruleSource", `
rule "Stalls per Cycle"
when
    f : MeanEventFact ( m : metric == "(BACK_END_BUBBLE_ALL / CPU_CYCLES)",
                        higherLower == HIGHER,
                        s : severity > 0.10,
                        e : eventName,
                        factType == "Compared to Main" )
then
    println("Event " + e + " has a higher than average stall / cycle rate")
end
`)
	src := `
harness = RuleHarnessFromSource(ruleSource)
trial = TrialMeanResult(Utilities.getTrial("app", "exp", "t1"))
derived = DeriveMetric(trial, "BACK_END_BUBBLE_ALL", "CPU_CYCLES", "/")
metric = DeriveMetricName("BACK_END_BUBBLE_ALL", "CPU_CYCLES", "/")
for event in derived.events {
    MeanEventFact.compareEventToMain(derived, metric, event)
}
harness.processRules()
`
	if err := s.RunScript(src); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Event hot has a higher than average stall / cycle rate") {
		t.Fatalf("stall rule did not fire for hot:\n%s", out)
	}
	if strings.Contains(out, "Event cold") {
		t.Fatalf("stall rule fired for cold:\n%s", out)
	}
	if s.LastResult() == nil || len(s.LastResult().Fired) != 1 {
		t.Fatalf("LastResult: %+v", s.LastResult())
	}
}

func TestCompareEventToMainFacts(t *testing.T) {
	s, _ := newTestSession(t)
	trial, err := s.Repo.GetTrialContext(context.Background(), "app", "exp", "t1")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CompareEventToMain(trial, "CPU_CYCLES", "hot"); err != nil {
		t.Fatal(err)
	}
	facts := s.Engine.FactsOfType("MeanEventFact")
	if len(facts) != 1 {
		t.Fatalf("facts: %v", facts)
	}
	f := facts[0]
	if v, _ := f.Get("higherLower"); v != "LOWER" {
		// hot's CPU_CYCLES exclusive mean (400) < main inclusive (1.5e6).
		t.Fatalf("higherLower = %v", v)
	}
	if v, _ := f.Get("severity"); v.(float64) <= 0 {
		t.Fatalf("severity = %v", v)
	}
	// Error paths.
	if err := s.CompareEventToMain(trial, "CPU_CYCLES", "ghost"); err == nil {
		t.Fatal("unknown event accepted")
	}
	if err := s.CompareEventToMain(trial, "GHOST_METRIC", "hot"); err == nil {
		t.Fatal("unknown metric accepted")
	}
}

func TestAssertLoadBalanceFacts(t *testing.T) {
	s, _ := newTestSession(t)
	trial, _ := s.Repo.GetTrialContext(context.Background(), "app", "exp", "t1")
	n := s.AssertLoadBalanceFacts(trial, perfdmf.TimeMetric)
	if n == 0 {
		t.Fatal("no facts asserted")
	}
	imb := s.Engine.FactsOfType("Imbalance")
	if len(imb) == 0 {
		t.Fatal("no Imbalance facts")
	}
	nest := s.Engine.FactsOfType("Nesting")
	foundNest := false
	for _, f := range nest {
		o, _ := f.Get("outer")
		i, _ := f.Get("inner")
		if o == "main" && i == "hot" {
			foundNest = true
		}
	}
	if !foundNest {
		t.Fatalf("main=>hot nesting fact missing: %v", nest)
	}
	if len(s.Engine.FactsOfType("Correlation")) == 0 {
		t.Fatal("no Correlation facts")
	}
}

func TestScriptAssertFactAndHarness(t *testing.T) {
	s, buf := newTestSession(t)
	s.Interp.SetGlobal("ruleSource", `
rule "seen"
when f : Custom ( v : value > 10 )
then println("custom " + v) end
`)
	src := `
harness = RuleHarnessFromSource(ruleSource)
assertFact("Custom", {"value": 42})
assertFact("Custom", {"value": 5})
harness.processRules()
harness.reset()
`
	if err := s.RunScript(src); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "custom 42") {
		t.Fatalf("output: %s", buf.String())
	}
	if strings.Contains(buf.String(), "custom 5") {
		t.Fatal("low-value fact fired")
	}
	if len(s.Engine.Facts()) != 0 {
		t.Fatal("reset did not clear facts")
	}
}

func TestReducersAndDerive(t *testing.T) {
	s, buf := newTestSession(t)
	src := `
trial = Utilities.getTrial("app", "exp", "t1")
mean = TrialMeanResult(trial)
total = TrialTotalResult(trial)
mx = TrialMaxResult(trial)
print(mean.threads, total.threads, mx.threads)
print(mean.meanInclusive("hot", "TIME"), total.meanInclusive("hot", "TIME"), mx.meanInclusive("hot", "TIME"))
d = trial.deriveMetric("BACK_END_BUBBLE_ALL", "CPU_CYCLES", "/")
print(d.meanExclusive("hot", DeriveMetricName("BACK_END_BUBBLE_ALL", "CPU_CYCLES", "/")))
`
	if err := s.RunScript(src); err != nil {
		t.Fatal(err)
	}
	// hot inclusive TIME per thread: 300,600,900,1200 → mean 750, total 3000, max 1200.
	if !strings.Contains(buf.String(), "750 3000 1200") {
		t.Fatalf("output: %s", buf.String())
	}
	if !strings.Contains(buf.String(), "0.5") {
		t.Fatalf("derived stall/cycle missing: %s", buf.String())
	}
}

func TestSaveTrialFromScript(t *testing.T) {
	s, _ := newTestSession(t)
	src := `
trial = Utilities.getTrial("app", "exp", "t1")
mean = TrialMeanResult(trial)
Utilities.saveTrial(mean)
`
	if err := s.RunScript(src); err != nil {
		t.Fatal(err)
	}
	got, err := s.Repo.GetTrialContext(context.Background(), "app", "exp", "t1")
	if err != nil {
		t.Fatal(err)
	}
	if got.Threads != 1 {
		t.Fatalf("saved trial threads = %d (mean reduction should have 1)", got.Threads)
	}
}

func TestScriptErrorPropagation(t *testing.T) {
	s, _ := newTestSession(t)
	cases := []string{
		`Utilities.getTrial("no", "such", "trial")`,
		`DeriveMetric("notatrial", "A", "B", "/")`,
		`trial = Utilities.getTrial("app", "exp", "t1"); DeriveMetric(trial, "A", "B", "%")`,
		`trial = Utilities.getTrial("app", "exp", "t1"); trial.meanExclusive("ghost", "TIME")`,
		`trial = Utilities.getTrial("app", "exp", "t1"); trial.meanExclusive("hot", "GHOST")`,
		`assertFact("T", "notamap")`,
		`RuleHarness("/no/such/rules.prl")`,
	}
	for _, src := range cases {
		if err := s.RunScript(src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

// TestRuleHarness: RuleHarness loads a file of the session's rule source by
// name. A missing name, an absolute path (even to the file itself) and a
// path climbing out with ".." fail with an error naming what was asked
// for, and without a rule source every name fails.
func TestRuleHarness(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "r.prl")
	if err := os.WriteFile(path, []byte(`rule "r" when f : T ( v : v > 1 ) then println(v) end`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, _ := newTestSession(t)
	if err := s.RunScript(`RuleHarness("r.prl")`); err == nil {
		t.Fatal("RuleHarness loaded a file with no rule source installed")
	}
	s.Rules = os.DirFS(dir)
	if err := s.RunScript(`RuleHarness("r.prl")`); err != nil {
		t.Fatal(err)
	}
	if got := s.Engine.Rules(); len(got) != 1 || got[0] != "r" {
		t.Fatalf("rules: %v", got)
	}
	for _, name := range []string{"missing.prl", path, "../" + filepath.Base(dir) + "/r.prl"} {
		err := s.RunScript(fmt.Sprintf("RuleHarness(%q)", name))
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("RuleHarness(%q): %v, want an error naming it", name, err)
		}
	}
}

func TestProgrammaticRuleWithSessionFacts(t *testing.T) {
	s, _ := newTestSession(t)
	var hits []string
	s.Engine.AddRule(rules.Rule{
		Name: "collect",
		Patterns: []rules.Pattern{{
			Type:        "MeanEventFact",
			Constraints: []rules.Constraint{{Field: "eventName", BindVar: "e"}},
		}},
		Action: func(ctx *rules.Context) error {
			hits = append(hits, ctx.Bindings["e"].(string))
			return nil
		},
	})
	trial, _ := s.Repo.GetTrialContext(context.Background(), "app", "exp", "t1")
	if err := s.CompareEventToMain(trial, "CPU_CYCLES", "hot"); err != nil {
		t.Fatal(err)
	}
	if err := s.CompareEventToMain(trial, "CPU_CYCLES", "cold"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 {
		t.Fatalf("hits: %v", hits)
	}
}
