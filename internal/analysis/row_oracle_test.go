package analysis

// The row-oriented implementations of the twelve operations the columnar
// engine (columnar.go) replaced, kept as the differential oracle: they walk
// the per-event map[string][]float64 cells of a perfdmf.Trial the way the
// operations were first written. differential_test.go calls each one next
// to its columnar twin over ~100 adversarial trials and requires IEEE-bits-
// exact agreement; aliasing_test.go holds both to the no-shared-storage
// contract.

import (
	"fmt"
	"sort"
	"strconv"

	"perfknow/internal/perfdmf"
)

// DeriveMetricRow is the row-oriented implementation of DeriveMetric,
// retained as the differential oracle for the columnar engine (see
// columnar.go).
func DeriveMetricRow(t *perfdmf.Trial, lhs, rhs string, op Op) (*perfdmf.Trial, string, error) {
	if !t.HasMetric(lhs) {
		return nil, "", fmt.Errorf("analysis: trial %q has no metric %q", t.Name, lhs)
	}
	if !t.HasMetric(rhs) {
		return nil, "", fmt.Errorf("analysis: trial %q has no metric %q", t.Name, rhs)
	}
	name := DeriveMetricName(lhs, rhs, op)
	out := t.Clone()
	out.AddMetric(name)
	for _, e := range out.Events {
		li, ri := e.Inclusive[lhs], e.Inclusive[rhs]
		le, re := e.Exclusive[lhs], e.Exclusive[rhs]
		for th := 0; th < out.Threads; th++ {
			e.SetValue(name, th, op.apply(at(li, th), at(ri, th)), op.apply(at(le, th), at(re, th)))
		}
	}
	return out, name, nil
}

// DeriveScaledRow is the row-oriented oracle for DeriveScaled.
func DeriveScaledRow(t *perfdmf.Trial, metric string, scale float64) (*perfdmf.Trial, string, error) {
	if !t.HasMetric(metric) {
		return nil, "", fmt.Errorf("analysis: trial %q has no metric %q", t.Name, metric)
	}
	name := "(" + metric + " * " + strconv.FormatFloat(scale, 'g', -1, 64) + ")"
	out := t.Clone()
	out.AddMetric(name)
	for _, e := range out.Events {
		inc, exc := e.Inclusive[metric], e.Exclusive[metric]
		for th := 0; th < out.Threads; th++ {
			e.SetValue(name, th, at(inc, th)*scale, at(exc, th)*scale)
		}
	}
	return out, name, nil
}

// DeriveSumRow is the row-oriented oracle for DeriveSum.
func DeriveSumRow(t *perfdmf.Trial, metrics []string) (*perfdmf.Trial, string, error) {
	if len(metrics) == 0 {
		return nil, "", fmt.Errorf("analysis: DeriveSum needs at least one metric")
	}
	for _, m := range metrics {
		if !t.HasMetric(m) {
			return nil, "", fmt.Errorf("analysis: trial %q has no metric %q", t.Name, m)
		}
	}
	name := "(sum"
	for _, m := range metrics {
		name += " " + m
	}
	name += ")"
	out := t.Clone()
	out.AddMetric(name)
	for _, e := range out.Events {
		for th := 0; th < out.Threads; th++ {
			var inc, exc float64
			for _, m := range metrics {
				inc += at(e.Inclusive[m], th)
				exc += at(e.Exclusive[m], th)
			}
			e.SetValue(name, th, inc, exc)
		}
	}
	return out, name, nil
}

// ReduceRow is the row-oriented oracle for Reduce.
func ReduceRow(t *perfdmf.Trial, r Reduction) *perfdmf.Trial {
	out := perfdmf.NewTrial(t.App, t.Experiment, t.Name, 1)
	for k, v := range t.Metadata {
		out.Metadata[k] = v
	}
	out.Metadata["reduction"] = r.String()
	out.Metrics = append([]string(nil), t.Metrics...)
	for _, e := range t.Events {
		ne := out.EnsureEvent(e.Name)
		ne.Calls[0] = reduce(e.Calls, r)
		ne.Groups = append([]string(nil), e.Groups...)
		for _, m := range t.Metrics {
			ne.SetValue(m, 0, reduce(e.Inclusive[m], r), reduce(e.Exclusive[m], r))
		}
	}
	return out
}

// ExtractEventsRow is the row-oriented oracle for ExtractEvents.
func ExtractEventsRow(t *perfdmf.Trial, names []string) *perfdmf.Trial {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	out := perfdmf.NewTrial(t.App, t.Experiment, t.Name, t.Threads)
	for k, v := range t.Metadata {
		out.Metadata[k] = v
	}
	out.Metrics = append([]string(nil), t.Metrics...)
	for _, e := range t.Events {
		if !want[e.Name] {
			continue
		}
		ne := out.EnsureEvent(e.Name)
		copy(ne.Calls, e.Calls)
		ne.Groups = append([]string(nil), e.Groups...)
		for _, m := range t.Metrics {
			for th := 0; th < t.Threads; th++ {
				ne.SetValue(m, th, at(e.Inclusive[m], th), at(e.Exclusive[m], th))
			}
		}
	}
	return out
}

// TopNRow is the row-oriented oracle for TopN.
func TopNRow(t *perfdmf.Trial, metric string, n int) []string {
	type ev struct {
		name string
		val  float64
	}
	var evs []ev
	for _, e := range t.Events {
		if e.IsCallpath() {
			continue
		}
		evs = append(evs, ev{e.Name, perfdmf.Mean(e.Exclusive[metric])})
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].val != evs[j].val {
			return evs[i].val > evs[j].val
		}
		return evs[i].name < evs[j].name
	})
	if n > len(evs) {
		n = len(evs)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = evs[i].name
	}
	return out
}

// DiffTrialsRow is the row-oriented oracle for DiffTrials.
func DiffTrialsRow(a, b *perfdmf.Trial) (*perfdmf.Trial, error) {
	if a.Threads != b.Threads {
		return nil, fmt.Errorf("analysis: diff of %d-thread and %d-thread trials", a.Threads, b.Threads)
	}
	out := perfdmf.NewTrial(a.App, a.Experiment, a.Name+" - "+b.Name, a.Threads)
	out.Metadata["algebra"] = "difference"
	out.Metadata["minuend"] = a.Name
	out.Metadata["subtrahend"] = b.Name
	var metrics []string
	for _, m := range a.Metrics {
		if b.HasMetric(m) {
			metrics = append(metrics, m)
			out.AddMetric(m)
		}
	}
	if len(metrics) == 0 {
		return nil, fmt.Errorf("analysis: trials %q and %q share no metrics", a.Name, b.Name)
	}
	names := unionEventNames(a, b)
	for _, name := range names {
		ea, eb := a.Event(name), b.Event(name)
		ne := out.EnsureEvent(name)
		for th := 0; th < out.Threads; th++ {
			ne.Calls[th] = callsAt(ea, th) - callsAt(eb, th)
			for _, m := range metrics {
				incA, excA := valuesAt(ea, m, th)
				incB, excB := valuesAt(eb, m, th)
				ne.SetValue(m, th, incA-incB, excA-excB)
			}
		}
	}
	return out, nil
}

// MergeTrialsRow is the row-oriented oracle for MergeTrials.
func MergeTrialsRow(trials []*perfdmf.Trial) (*perfdmf.Trial, error) {
	if len(trials) == 0 {
		return nil, fmt.Errorf("analysis: merge of no trials")
	}
	first := trials[0]
	for _, t := range trials[1:] {
		if t.Threads != first.Threads {
			return nil, fmt.Errorf("analysis: merge of mismatched thread counts (%d vs %d)",
				t.Threads, first.Threads)
		}
	}
	metrics := append([]string(nil), first.Metrics...)
	for _, t := range trials[1:] {
		var keep []string
		for _, m := range metrics {
			if t.HasMetric(m) {
				keep = append(keep, m)
			}
		}
		metrics = keep
	}
	if len(metrics) == 0 {
		return nil, fmt.Errorf("analysis: merged trials share no metrics")
	}
	out := perfdmf.NewTrial(first.App, first.Experiment, "merged", first.Threads)
	out.Metadata["algebra"] = "merge"
	out.Metadata["members"] = fmt.Sprintf("%d", len(trials))
	for _, m := range metrics {
		out.AddMetric(m)
	}
	for _, t := range trials {
		for _, e := range t.Events {
			ne := out.EnsureEvent(e.Name)
			for th := 0; th < out.Threads; th++ {
				ne.Calls[th] += callsAt(e, th)
				for _, m := range metrics {
					inc, exc := valuesAt(e, m, th)
					ne.AddValue(m, th, inc, exc)
				}
			}
		}
	}
	return out, nil
}

// RelativeChangeRow is the row-oriented oracle for RelativeChange.
func RelativeChangeRow(base, other *perfdmf.Trial, metric string, minBase float64) []Change {
	var out []Change
	for _, e := range base.Events {
		if e.IsCallpath() {
			continue
		}
		bv := perfdmf.Mean(e.Exclusive[metric])
		if bv < minBase || bv == 0 {
			continue
		}
		oe := other.Event(e.Name)
		if oe == nil {
			continue
		}
		ov := perfdmf.Mean(oe.Exclusive[metric])
		out = append(out, Change{Event: e.Name, Base: bv, Other: ov, Fraction: (ov - bv) / bv})
	}
	sortChanges(out)
	return out
}

func unionEventNames(a, b *perfdmf.Trial) []string {
	seen := make(map[string]bool)
	var out []string
	for _, e := range a.Events {
		if !seen[e.Name] {
			seen[e.Name] = true
			out = append(out, e.Name)
		}
	}
	for _, e := range b.Events {
		if !seen[e.Name] {
			seen[e.Name] = true
			out = append(out, e.Name)
		}
	}
	return out
}

func callsAt(e *perfdmf.Event, th int) float64 {
	if e == nil || th >= len(e.Calls) {
		return 0
	}
	return e.Calls[th]
}

func valuesAt(e *perfdmf.Event, metric string, th int) (inc, exc float64) {
	if e == nil {
		return 0, 0
	}
	return at(e.Inclusive[metric], th), at(e.Exclusive[metric], th)
}

// ExclusiveStatsRow is the row-oriented oracle for ExclusiveStats.
func ExclusiveStatsRow(t *perfdmf.Trial, metric string) []EventStat {
	return eventStats(t, metric, false)
}

// InclusiveStatsRow is the row-oriented oracle for InclusiveStats.
func InclusiveStatsRow(t *perfdmf.Trial, metric string) []EventStat {
	return eventStats(t, metric, true)
}

func eventStats(t *perfdmf.Trial, metric string, inclusive bool) []EventStat {
	var out []EventStat
	for _, e := range t.Events {
		if e.IsCallpath() {
			continue
		}
		vals := e.Exclusive[metric]
		if inclusive {
			vals = e.Inclusive[metric]
		}
		if len(vals) == 0 {
			continue
		}
		s := EventStat{Event: e.Name, Threads: t.Threads, Mean: perfdmf.Mean(vals),
			StdDev: perfdmf.StdDev(vals), Total: perfdmf.Sum(vals), Min: vals[0], Max: vals[0]}
		for _, v := range vals {
			if v < s.Min {
				s.Min = v
			}
			if v > s.Max {
				s.Max = v
			}
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Mean != out[j].Mean {
			return out[i].Mean > out[j].Mean
		}
		return out[i].Event < out[j].Event
	})
	return out
}

// KMeansRow is the row-oriented oracle for KMeans. Both engines share
// kmeansCore; they differ only in how the feature matrix is gathered.
func KMeansRow(t *perfdmf.Trial, metric string, k int, maxIter int) (*Clustering, error) {
	if k <= 0 {
		return nil, fmt.Errorf("analysis: k must be positive, got %d", k)
	}
	if k > t.Threads {
		return nil, fmt.Errorf("analysis: k=%d exceeds thread count %d", k, t.Threads)
	}
	var events []string
	for _, e := range t.Events {
		if !e.IsCallpath() && len(e.Exclusive[metric]) == t.Threads {
			events = append(events, e.Name)
		}
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("analysis: trial %q has no events with metric %q", t.Name, metric)
	}

	// Feature matrix: threads × events.
	feats := make([][]float64, t.Threads)
	for th := range feats {
		feats[th] = make([]float64, len(events))
	}
	for j, name := range events {
		for th, v := range t.Event(name).Exclusive[metric] {
			feats[th][j] = v
		}
	}
	return kmeansCore(events, feats, k, maxIter)
}
