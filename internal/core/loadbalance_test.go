package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"perfknow/internal/analysis"
	"perfknow/internal/apps/genidlest"
	"perfknow/internal/apps/msa"
	"perfknow/internal/machine"
	"perfknow/internal/perfdmf"
	"perfknow/internal/rules"
	"perfknow/internal/sim"
)

// pairwiseLoadBalanceFacts is the oracle for the batch facts: the
// derivation straight from the trial, one Imbalance per analysis row in
// its order, then a Nesting and a Correlation for every ordered pair of
// those rows that analysis.IsNested accepts.
func pairwiseLoadBalanceFacts(eng *rules.Engine, t *perfdmf.Trial, metric string) int {
	n := 0
	lbs := analysis.LoadBalanceAnalysis(t, metric)
	for _, lb := range lbs {
		eng.Assert(rules.NewFact("Imbalance", map[string]any{
			"eventName": lb.Event, "ratio": lb.Ratio, "severity": lb.FractionOfTotal,
			"mean": lb.Mean, "stddev": lb.StdDev,
		}))
		n++
	}
	for _, outer := range lbs {
		for _, inner := range lbs {
			if outer.Event == inner.Event || !analysis.IsNested(t, outer.Event, inner.Event) {
				continue
			}
			eng.Assert(rules.NewFact("Nesting", map[string]any{"outer": outer.Event, "inner": inner.Event}))
			n++
			corr, err := analysis.EventCorrelation(t, metric, inner.Event, outer.Event)
			if err != nil {
				panic(err)
			}
			eng.Assert(rules.NewFact("Correlation", map[string]any{
				"innerEvent": inner.Event, "outerEvent": outer.Event, "value": corr,
			}))
			n++
		}
	}
	return n
}

// factLines renders working memory in assertion order, floats as their
// IEEE bits, so two derivations compare bit for bit.
func factLines(eng *rules.Engine) []string {
	var out []string
	for _, f := range eng.Facts() {
		line := f.Type
		for _, k := range []string{"eventName", "ratio", "severity", "mean", "stddev", "outer", "inner", "innerEvent", "outerEvent", "value"} {
			switch v := f.Fields[k].(type) {
			case float64:
				line += fmt.Sprintf(" %s=%#x", k, math.Float64bits(v))
			case string:
				line += fmt.Sprintf(" %s=%q", k, v)
			}
		}
		out = append(out, line)
	}
	return out
}

// randomNestedTrial builds a trial with the shapes the derivation must get
// right: zero-mean events, tied ratios, callpaths with repeated segments
// and segments that name no flat event.
func randomNestedTrial(rng *rand.Rand, threads int) *perfdmf.Trial {
	t := perfdmf.NewTrial("app", "exp", fmt.Sprintf("r%d", rng.Int()), threads)
	t.AddMetric(perfdmf.TimeMetric)
	names := []string{"main", "a", "b", "c", "d", "e"}
	for _, name := range names {
		e := t.EnsureEvent(name)
		kind := rng.Intn(5)
		for th := 0; th < threads; th++ {
			v := 0.0
			switch kind {
			case 0: // zero mean
			case 1: // balanced: ties on ratio 0
				v = 10
			default:
				v = float64(rng.Intn(50))
			}
			e.SetValue(perfdmf.TimeMetric, th, v*2+1, v)
		}
	}
	ghosts := append(names, "ghost")
	for k := 0; k < 6; k++ {
		path := ghosts[rng.Intn(len(ghosts))]
		for d := 1 + rng.Intn(4); d > 0; d-- {
			path += perfdmf.CallpathSeparator + ghosts[rng.Intn(len(ghosts))]
		}
		t.EnsureEvent(path)
	}
	return t
}

// TestLoadBalanceFactsMatchPairwise: the batch facts fed through
// LoadBalanceFacts are the pairwise derivation's, bit for bit, in the same
// order and number, on simulator trials and on adversarial ones.
func TestLoadBalanceFactsMatchPairwise(t *testing.T) {
	altix := machine.Altix(16, 2)
	var trials []*perfdmf.Trial
	for _, kind := range []sim.ScheduleKind{sim.StaticSched, sim.DynamicSched} {
		tr, err := msa.Run(altix, msa.Params{
			Sequences: 32, MeanLen: 80, LenJitter: 40, Seed: 7,
			Threads: 8, Schedule: sim.Schedule{Kind: kind},
		})
		if err != nil {
			t.Fatal(err)
		}
		trials = append(trials, tr)
	}
	for _, mode := range []genidlest.Mode{genidlest.OpenMP, genidlest.MPI} {
		tr, err := genidlest.Run(altix, genidlest.DefaultConfig(genidlest.Rib90(), mode, 4))
		if err != nil {
			t.Fatal(err)
		}
		trials = append(trials, tr)
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 200; i++ {
		trials = append(trials, randomNestedTrial(rng, 1+rng.Intn(6)))
	}

	nested := 0
	for _, tr := range trials {
		want := rules.NewEngine()
		wantN := pairwiseLoadBalanceFacts(want, tr, perfdmf.TimeMetric)
		s := NewSession(nil)
		gotN := s.AssertLoadBalanceFacts(tr, perfdmf.TimeMetric)
		if gotN != wantN {
			t.Fatalf("%s: asserted %d facts, want %d", tr.Name, gotN, wantN)
		}
		got, wantLines := factLines(s.Engine), factLines(want)
		for i := range wantLines {
			if got[i] != wantLines[i] {
				t.Fatalf("%s: fact %d\n got %s\nwant %s", tr.Name, i, got[i], wantLines[i])
			}
		}
		if len(s.Engine.FactsOfType("Nesting")) > 0 {
			nested++
		}
	}
	if nested < len(trials)/4 {
		t.Fatalf("only %d of %d trials had a nested pair; the comparison is too weak", nested, len(trials))
	}
}
