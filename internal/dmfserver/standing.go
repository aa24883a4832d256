package dmfserver

import (
	"context"

	"perfknow/internal/core"
	"perfknow/internal/perfdmf"
	"perfknow/internal/rules"
)

// StandingDiagnosis is the batch load-balance diagnosis kept current over
// a stream: a long-lived rule engine whose working memory holds the
// core.LoadBalanceFacts of a sliding window of streamed chunks — the same
// derivation core.Session.AssertLoadBalanceFacts feeds a whole trial
// through. Each Append updates the window in O(chunk delta), re-derives
// the facts of the rows the delta changed (retract old, assert new — which
// is what keeps the Rete network's work proportional to the change), and
// fires whatever standing rules newly activate.
//
// A window has no main event, so an Imbalance fact's severity is the
// event's mean over the windowed grand total per thread (batch diagnosis
// divides by the main event's mean inclusive value instead). Facts for
// untouched events are deliberately left stale (their severity
// denominators drift as the total moves) — recomputing them would make
// append cost O(window), defeating the point. docs/STREAMING.md spells out
// the resulting delivery guarantees.
//
// StandingDiagnosis is not self-synchronizing: the caller (the stream
// registry, or a benchmark) serializes Append calls per instance.
type StandingDiagnosis struct {
	facts    *core.LoadBalanceFacts
	standing *rules.Standing
}

// NewStandingDiagnosis builds a standing diagnosis over threads-wide rows
// with a window of windowChunks chunks (0 = cumulative), loading each rule
// source (PerfExplorer .prl text) into a fresh engine.
func NewStandingDiagnosis(threads, windowChunks int, ruleSources ...string) (*StandingDiagnosis, error) {
	eng := rules.NewEngine()
	for _, src := range ruleSources {
		if err := eng.LoadString(src); err != nil {
			return nil, err
		}
	}
	return &StandingDiagnosis{
		facts:    core.NewLoadBalanceFacts(eng, perfdmf.NewColumnWindow(threads, windowChunks), perThreadTotal),
		standing: rules.NewStanding(eng),
	}, nil
}

// perThreadTotal is the standing severity denominator: the windowed grand
// total divided by the thread count.
func perThreadTotal(w *perfdmf.ColumnWindow) float64 { return w.Total() / float64(w.Threads()) }

// Rules returns the loaded rule names.
func (d *StandingDiagnosis) Rules() []string { return d.standing.Engine().Rules() }

// Append applies one chunk's samples and returns the standing-rule firings
// the delta produced. Samples with callpath names ("a => b") feed nesting
// discovery; flat samples feed the window.
func (d *StandingDiagnosis) Append(ctx context.Context, samples []perfdmf.WindowSample) ([]rules.Firing, error) {
	d.facts.Append(samples)
	return d.standing.Step(ctx)
}
