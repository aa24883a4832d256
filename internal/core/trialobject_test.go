package core

import (
	"context"
	"strings"
	"testing"
)

func TestTrialObjectMembers(t *testing.T) {
	s, buf := newTestSession(t)
	src := `
trial = Utilities.getTrial("app", "exp", "t1")
print(trial.experiment, trial.metrics)
print(trial.calls("main"))
print(trial.totalExclusive("hot", "TIME"), trial.maxExclusive("hot", "TIME"))
print(trial.stddevExclusive("cold", "TIME"))
print(trial.correlation("hot", "cold", "TIME"))
sub = trial.extract(["hot"])
print(sub.events)
`
	if err := s.RunScript(src); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"exp [TIME, BACK_END_BUBBLE_ALL, CPU_CYCLES]",
		"4",         // main calls summed over 4 threads
		"3000 1200", // hot exclusive total/max (300+600+900+1200)
		"0",         // cold is constant → stddev 0
		"[hot]",     // extract
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTrialObjectErrors(t *testing.T) {
	s, _ := newTestSession(t)
	cases := []string{
		`trial = Utilities.getTrial("app", "exp", "t1"); trial.nosuchmember`,
		`trial = Utilities.getTrial("app", "exp", "t1"); trial.calls("ghost")`,
		`trial = Utilities.getTrial("app", "exp", "t1"); trial.metadata()`,
		`trial = Utilities.getTrial("app", "exp", "t1"); trial.deriveMetric("TIME", "NOPE", "/")`,
		`trial = Utilities.getTrial("app", "exp", "t1"); trial.correlation("ghost", "hot", "TIME")`,
		`trial = Utilities.getTrial("app", "exp", "t1"); trial.extract("notalist")`,
		`trial = Utilities.getTrial("app", "exp", "t1"); trial.topN("TIME")`,
		`trial = Utilities.getTrial("app", "exp", "t1"); trial.imbalanceRatio("ghost", "TIME")`,
	}
	for _, src := range cases {
		if err := s.RunScript(src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestTrialObjectMetadataAndName(t *testing.T) {
	s, _ := newTestSession(t)
	trial, _ := s.Repo.GetTrialContext(context.Background(), "app", "exp", "t1")
	trial.Metadata["schedule"] = "static"
	to := &TrialObject{Trial: trial}
	if to.TypeName() != "Trial(t1)" {
		t.Fatalf("TypeName: %s", to.TypeName())
	}
	if to.Members().Lookup("metadata") == nil {
		t.Fatal("metadata member missing")
	}
	if err := s.RunScript(`
trial = Utilities.getTrial("app", "exp", "t1")
if trial.metadata("schedule") != "static" { print("bad") } else { print("good") }
`); err != nil {
		t.Fatal(err)
	}
}

func TestTrialObjectMainEventFallback(t *testing.T) {
	// A trial without TIME falls back to its first metric for mainEvent.
	s, buf := newTestSession(t)
	if err := s.RunScript(`
trial = Utilities.getTrial("app", "exp", "t1")
d = TrialMeanResult(trial)
print(d.mainEvent)
`); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "main") && !strings.Contains(buf.String(), "hot") {
		t.Fatalf("mainEvent: %s", buf.String())
	}
}

// TestAbsentNamesErrorAlike: every row taking an event or a metric reports an
// absent one the same way, naming the parameter, before it computes anything.
func TestAbsentNamesErrorAlike(t *testing.T) {
	s, _ := newTestSession(t)
	cases := map[string]string{
		`trial.meanExclusive("ghost", "TIME")`:                     `meanExclusive(event, metric): event: no event "ghost"`,
		`trial.meanExclusive("hot", "NOPE")`:                       `meanExclusive(event, metric): metric: no metric "NOPE"`,
		`trial.meanInclusive("hot", "NOPE")`:                       `meanInclusive(event, metric): metric: no metric "NOPE"`,
		`trial.stddevExclusive("hot", "NOPE")`:                     `stddevExclusive(event, metric): metric: no metric "NOPE"`,
		`trial.totalExclusive("hot", "NOPE")`:                      `totalExclusive(event, metric): metric: no metric "NOPE"`,
		`trial.maxExclusive("hot", "NOPE")`:                        `maxExclusive(event, metric): metric: no metric "NOPE"`,
		`trial.calls("ghost")`:                                     `calls(event): event: no event "ghost"`,
		`trial.deriveMetric("TIME", "NOPE", "/")`:                  `deriveMetric(lhs, rhs, op): rhs: no metric "NOPE"`,
		`trial.correlation("hot", "cold", "NOPE")`:                 `correlation(eventA, eventB, metric): metric: no metric "NOPE"`,
		`trial.isNested("main", "ghost")`:                          `isNested(outer, inner): inner: no event "ghost"`,
		`trial.topN("NOPE", 3)`:                                    `topN(metric, n): metric: no metric "NOPE"`,
		`trial.imbalanceRatio("hot", "NOPE")`:                      `imbalanceRatio(event, metric): metric: no metric "NOPE"`,
		`DeriveMetric(trial, "NOPE", "TIME", "/")`:                 `DeriveMetric(trial, lhs, rhs, op): lhs: no metric "NOPE"`,
		`LoadBalanceFacts(trial, "NOPE")`:                          `LoadBalanceFacts(trial, metric): metric: no metric "NOPE"`,
		`MeanEventFact.compareEventToMain(trial, "TIME", "ghost")`: `compareEventToMain(trial, metric, event): event: no event "ghost"`,
		`trial.topN("TIME", -1)`:                                   `topN(metric, n): n: want a non-negative integer, got -1`,
		`trial.topN("TIME", 2.5)`:                                  `topN(metric, n): n: want a non-negative integer, got 2.5`,
	}
	for src, want := range cases {
		err := s.RunScript("trial = Utilities.getTrial(\"app\", \"exp\", \"t1\")\n" + src)
		if want = "script: line 2: " + want; err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %q", src, err, want)
		}
	}
}
