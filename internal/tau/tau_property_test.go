package tau

import (
	"math/rand"
	"testing"

	"perfknow/internal/counters"
	"perfknow/internal/perfdmf"
)

// TestRandomNestingInvariants drives the profiler with randomly nested,
// well-bracketed enter/leave sequences and checks the accounting
// invariants: exclusive <= inclusive everywhere, the root's inclusive
// equals total elapsed time, and the sum of all exclusive values equals the
// root's inclusive value (every cycle is attributed to exactly one region).
func TestRandomNestingInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	events := []string{"a", "b", "c", "d", "e"}

	for trial := 0; trial < 50; trial++ {
		p := NewProfiler(Options{Threads: 1, ClockHz: 1e9, CallpathDepth: 0})
		tp := p.Thread(0)
		var cs counters.Set
		clock := uint64(0)

		tp.Enter("root", clock, &cs)
		var stack []string
		depth := 0
		steps := 5 + rng.Intn(40)
		for i := 0; i < steps; i++ {
			clock += uint64(1 + rng.Intn(100))
			cs.Inc(counters.FPOps, uint64(rng.Intn(50)))
			switch {
			case depth > 0 && rng.Intn(2) == 0:
				ev := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				depth--
				tp.Leave(ev, clock, &cs)
			case depth < 4:
				ev := events[rng.Intn(len(events))]
				stack = append(stack, ev)
				depth++
				tp.Enter(ev, clock, &cs)
			}
		}
		for len(stack) > 0 {
			clock += uint64(1 + rng.Intn(100))
			ev := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			tp.Leave(ev, clock, &cs)
		}
		clock += 10
		tp.Leave("root", clock, &cs)

		tr, err := p.Trial("a", "e", "t")
		if err != nil {
			t.Fatal(err)
		}
		var exclSum float64
		for _, e := range tr.Events {
			inc := e.Inclusive[perfdmf.TimeMetric][0]
			exc := e.Exclusive[perfdmf.TimeMetric][0]
			if exc > inc+1e-9 {
				t.Fatalf("trial %d: event %q exclusive %g > inclusive %g", trial, e.Name, exc, inc)
			}
			exclSum += exc
			// Counter invariant too.
			if e.Exclusive["FP_OPS_RETIRED"] != nil &&
				e.Exclusive["FP_OPS_RETIRED"][0] > e.Inclusive["FP_OPS_RETIRED"][0] {
				t.Fatalf("trial %d: event %q FP exclusive exceeds inclusive", trial, e.Name)
			}
		}
		rootInc := tr.Event("root").Inclusive[perfdmf.TimeMetric][0]
		wantTotal := float64(clock) / 1e9 * 1e6
		if diff := rootInc - wantTotal; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("trial %d: root inclusive %g != elapsed %g", trial, rootInc, wantTotal)
		}
		if diff := exclSum - rootInc; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("trial %d: exclusive sum %g != root inclusive %g", trial, exclSum, rootInc)
		}
	}
}
