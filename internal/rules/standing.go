package rules

import (
	"context"
	"strconv"
	"strings"
)

// Standing drives a long-lived Engine for continuous diagnosis: instead of
// one Run over a fully asserted working memory, the caller asserts and
// retracts facts as the observed system changes and calls Step after each
// batch of changes. Step fires whatever new activations those changes
// produced — and only those, because the Rete network updates match state
// incrementally on Assert/Retract and the refraction memory suppresses
// everything that already fired — then returns one Firing per rule
// execution with exactly the output that firing produced.
//
// Standing assumes the single-actor discipline the engine's
// match-resolve-act loop already requires: one goroutine calls
// Assert/Retract/Step (the stream registry serializes per stream).
type Standing struct {
	e *Engine

	// firedHighWater triggers refraction pruning: retracted facts leave
	// dead entries in the engine's fired map, and a stream that runs for
	// days would otherwise grow it without bound.
	firedHighWater int
}

// Firing is one standing-rule execution: the delta of a single activation.
type Firing struct {
	Rule            string
	Output          []string
	Recommendations []Recommendation
}

// NewStanding wraps an engine (typically freshly loaded with a rule base)
// for standing use.
func NewStanding(e *Engine) *Standing {
	return &Standing{e: e, firedHighWater: 4096}
}

// Engine exposes the wrapped engine for Assert/Retract.
func (s *Standing) Engine() *Engine { return s.e }

// Step runs the match-resolve-act loop to quiescence and returns the
// firings it performed, each carrying only the output lines and
// recommendations that that firing appended. The engine's result
// accumulators are drained afterwards so a long-lived engine stays
// bounded; refraction memory is kept (minus entries for retracted facts)
// so nothing ever fires twice for the same fact tuple.
func (s *Standing) Step(ctx context.Context) ([]Firing, error) {
	e := s.e
	var firings []Firing
	err := e.step(ctx, func(rule string, out []string, recs []Recommendation) {
		firings = append(firings, Firing{Rule: rule, Output: out, Recommendations: recs})
	})
	if err != nil {
		return firings, err
	}
	e.drainResults()
	if len(e.fired) > s.firedHighWater {
		s.pruneRefraction()
	}
	return firings, nil
}

// resultLens snapshots the output/recommendation accumulator lengths.
func (e *Engine) resultLens() (int, int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.output), len(e.recommendations)
}

// resultsSince copies the accumulator tails appended after the snapshot.
func (e *Engine) resultsSince(outBase, recBase int) ([]string, []Recommendation) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []string
	if len(e.output) > outBase {
		out = append(out, e.output[outBase:]...)
	}
	var recs []Recommendation
	if len(e.recommendations) > recBase {
		recs = append(recs, e.recommendations[recBase:]...)
	}
	return out, recs
}

// drainResults clears the result accumulators (output, recommendations,
// fired log) without touching working memory or refraction state.
func (e *Engine) drainResults() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.output = nil
	e.recommendations = nil
	e.firedLog = nil
}

// pruneRefraction drops refraction entries whose fact tuples contain a
// retracted fact. Fact ids are issued monotonically and never reused, so a
// tuple with a dead id can never reactivate — forgetting that it fired is
// safe and keeps the map proportional to live activations.
func (s *Standing) pruneRefraction() {
	e := s.e
	e.mu.Lock()
	defer e.mu.Unlock()
	live := make(map[string]struct{}, len(e.facts))
	for _, f := range e.facts {
		live[strconv.FormatInt(f.id, 10)] = struct{}{}
	}
	for key := range e.fired {
		bar := strings.IndexByte(key, '|')
		if bar < 0 {
			continue
		}
		for _, id := range strings.Split(key[bar+1:], ",") {
			if _, ok := live[id]; !ok {
				delete(e.fired, key)
				break
			}
		}
	}
}
