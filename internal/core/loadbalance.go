package core

import (
	"slices"
	"strings"

	"perfknow/internal/perfdmf"
	"perfknow/internal/rules"
)

// LoadBalanceFacts keeps the facts the load-imbalance rule joins over
// (§III-A) in a rule engine's working memory, derived from one metric's
// per-thread exclusive values in a perfdmf.ColumnWindow. The batch
// diagnosis feeds a whole trial once into a cumulative window
// (Session.AssertLoadBalanceFacts); a standing stream diagnosis feeds one
// chunk at a time into a sliding one. Both assert what this type derives:
//
//   - Imbalance{eventName, ratio, severity, mean, stddev} for each window
//     row with a nonzero mean: ratio is stddev/mean, severity the mean
//     over the caller's denominator (0 when it is not positive).
//   - Nesting{outer, inner} once per pair named along a callpath
//     ("outer => … => inner", transitive pairs included, as
//     analysis.IsNested judges them), as soon as both rows exist.
//   - Correlation{innerEvent, outerEvent, value} for each nesting pair:
//     the Pearson correlation of the two rows, refreshed whenever either
//     row changes.
//
// A feed re-derives the facts of the rows it changed (retract the old
// fact, assert the new one) and leaves every other fact as it was, so its
// cost follows the feed, not the window. Imbalance facts are asserted in
// row order; Nesting and Correlation facts after them, in (outer row, inner
// row) order, each new pair's Nesting just before its Correlation.
type LoadBalanceFacts struct {
	window   *perfdmf.ColumnWindow
	engine   *rules.Engine
	severity func(*perfdmf.ColumnWindow) float64

	imbalance   map[int]*rules.Fact // row → live Imbalance fact
	correlation map[rowPair]*rules.Fact
	pairsOf     map[int][]rowPair // row → registered pairs it is a side of
	named       map[namePair]bool // every pair a callpath has named
	pending     []namePair        // named pairs waiting for both rows
	work        []rowPair         // pairs one feed refreshes, reused
}

type rowPair struct{ outer, inner int }

type namePair struct{ outer, inner string }

// NewLoadBalanceFacts derives facts over window into engine. severity
// returns the denominator of the Imbalance severity, given the window
// after a feed has been applied.
func NewLoadBalanceFacts(engine *rules.Engine, window *perfdmf.ColumnWindow, severity func(*perfdmf.ColumnWindow) float64) *LoadBalanceFacts {
	return &LoadBalanceFacts{
		window:      window,
		engine:      engine,
		severity:    severity,
		imbalance:   make(map[int]*rules.Fact),
		correlation: make(map[rowPair]*rules.Fact),
		pairsOf:     make(map[int][]rowPair),
		named:       make(map[namePair]bool),
	}
}

// Append feeds samples: a callpath sample ("a => b") names nesting pairs,
// a flat one adds to its event's window row. It re-derives the facts the
// feed changed and returns how many facts it asserted.
func (f *LoadBalanceFacts) Append(samples []perfdmf.WindowSample) int {
	flat := samples[:0:0]
	for _, s := range samples {
		if strings.Contains(s.Event, perfdmf.CallpathSeparator) {
			f.name(s.Event)
			continue
		}
		flat = append(flat, s)
	}
	changed := f.window.Append(flat)
	denom := f.severity(f.window)

	n := 0
	for _, row := range changed {
		if old := f.imbalance[row]; old != nil {
			f.engine.Retract(old)
			delete(f.imbalance, row)
		}
		vals := f.window.Values(row)
		if mean := perfdmf.Mean(vals); mean != 0 {
			stddev := perfdmf.StdDev(vals)
			severity := 0.0
			if denom > 0 {
				severity = mean / denom
			}
			f.imbalance[row] = f.engine.Assert(rules.NewFact("Imbalance", map[string]any{
				"eventName": f.window.EventName(row),
				"ratio":     stddev / mean,
				"severity":  severity,
				"mean":      mean,
				"stddev":    stddev,
			}))
			n++
		}
		f.work = append(f.work, f.pairsOf[row]...)
	}

	// Register the named pairs whose rows both exist now.
	still := f.pending[:0]
	for _, p := range f.pending {
		if pair, ok := f.register(p); ok {
			f.work = append(f.work, pair)
		} else {
			still = append(still, p)
		}
	}
	f.pending = still

	slices.SortFunc(f.work, func(a, b rowPair) int {
		if a.outer != b.outer {
			return a.outer - b.outer
		}
		return a.inner - b.inner
	})
	for _, p := range slices.Compact(f.work) {
		old := f.correlation[p]
		if old == nil {
			f.engine.Assert(rules.NewFact("Nesting", map[string]any{
				"outer": f.window.EventName(p.outer),
				"inner": f.window.EventName(p.inner),
			}))
			n++
		} else {
			f.engine.Retract(old)
		}
		f.correlation[p] = f.engine.Assert(rules.NewFact("Correlation", map[string]any{
			"innerEvent": f.window.EventName(p.inner),
			"outerEvent": f.window.EventName(p.outer),
			"value":      perfdmf.Correlation(f.window.Values(p.inner), f.window.Values(p.outer)),
		}))
		n++
	}
	f.work = f.work[:0]
	return n
}

// name records every (outer, inner) ordering along one callpath that no
// earlier callpath named.
func (f *LoadBalanceFacts) name(callpath string) {
	segs := strings.Split(callpath, perfdmf.CallpathSeparator)
	for i := range segs {
		for _, inner := range segs[i+1:] {
			p := namePair{outer: segs[i], inner: inner}
			if p.outer == p.inner || f.named[p] {
				continue
			}
			f.named[p] = true
			f.pending = append(f.pending, p)
		}
	}
}

// register indexes a named pair by its rows, or reports false while
// either row is missing.
func (f *LoadBalanceFacts) register(p namePair) (rowPair, bool) {
	outer, ok := f.window.EventIndex(p.outer)
	if !ok {
		return rowPair{}, false
	}
	inner, ok := f.window.EventIndex(p.inner)
	if !ok {
		return rowPair{}, false
	}
	pair := rowPair{outer: outer, inner: inner}
	f.pairsOf[outer] = append(f.pairsOf[outer], pair)
	f.pairsOf[inner] = append(f.pairsOf[inner], pair)
	return pair, true
}
