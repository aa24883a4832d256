package analysis

import (
	"fmt"
	"sort"
	"strconv"

	"perfknow/internal/perfdmf"
)

// EventStat summarizes one event's metric across threads.
type EventStat struct {
	Event   string
	Mean    float64
	StdDev  float64
	Min     float64
	Max     float64
	Total   float64
	Threads int
}

// LoadBalance reports the imbalance of one event across threads: the ratio
// of the standard deviation to the mean of per-thread exclusive values (the
// paper's imbalance indicator, flagged above 0.25), and the event's share of
// total runtime (its severity, flagged above 5%).
type LoadBalance struct {
	Event           string
	Mean            float64
	StdDev          float64
	Ratio           float64 // StdDev / Mean
	FractionOfTotal float64 // mean exclusive / mean inclusive of main
}

// LoadBalanceAnalysis computes per-event load balance for the metric,
// sorted by descending Ratio. Events with zero mean are skipped.
func LoadBalanceAnalysis(t *perfdmf.Trial, metric string) []LoadBalance {
	main := t.MainEvent(metric)
	mainVal := 0.0
	if main != nil {
		mainVal = perfdmf.Mean(main.Inclusive[metric])
	}
	var out []LoadBalance
	for _, e := range t.Events {
		if e.IsCallpath() {
			continue
		}
		vals := e.Exclusive[metric]
		mean := perfdmf.Mean(vals)
		if mean == 0 {
			continue
		}
		lb := LoadBalance{Event: e.Name, Mean: mean, StdDev: perfdmf.StdDev(vals)}
		lb.Ratio = lb.StdDev / mean
		if mainVal > 0 {
			lb.FractionOfTotal = mean / mainVal
		}
		out = append(out, lb)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Ratio != out[j].Ratio {
			return out[i].Ratio > out[j].Ratio
		}
		return out[i].Event < out[j].Event
	})
	return out
}

// EventCorrelation returns the per-thread Pearson correlation between two
// events' exclusive values of a metric — the paper's check that a thread
// finishing the inner loop early waits longer in the outer loop (strong
// negative correlation).
func EventCorrelation(t *perfdmf.Trial, metric, eventA, eventB string) (float64, error) {
	a, b := t.Event(eventA), t.Event(eventB)
	if a == nil {
		return 0, fmt.Errorf("analysis: no event %q in trial %q", eventA, t.Name)
	}
	if b == nil {
		return 0, fmt.Errorf("analysis: no event %q in trial %q", eventB, t.Name)
	}
	return perfdmf.Correlation(a.Exclusive[metric], b.Exclusive[metric]), nil
}

// MetricCorrelation returns the Pearson correlation between two metrics
// over all (flat event, thread) exclusive samples — PerfExplorer's
// cross-metric correlation analysis (e.g. "do L3 misses explain time?").
func MetricCorrelation(t *perfdmf.Trial, metricA, metricB string) (float64, error) {
	if !t.HasMetric(metricA) {
		return 0, fmt.Errorf("analysis: no metric %q in trial %q", metricA, t.Name)
	}
	if !t.HasMetric(metricB) {
		return 0, fmt.Errorf("analysis: no metric %q in trial %q", metricB, t.Name)
	}
	var xs, ys []float64
	for _, e := range t.Events {
		if e.IsCallpath() {
			continue
		}
		for th := 0; th < t.Threads; th++ {
			xs = append(xs, at(e.Exclusive[metricA], th))
			ys = append(ys, at(e.Exclusive[metricB], th))
		}
	}
	return perfdmf.Correlation(xs, ys), nil
}

// IsNested reports whether one event calls the other, judged from callpath
// events present in the trial (a callpath "... outer => ... inner ..."
// or an immediate parent/child pair).
func IsNested(t *perfdmf.Trial, outer, inner string) bool {
	for _, e := range t.Events {
		if !e.IsCallpath() {
			continue
		}
		var haveOuter bool
		cur := e.Name
		for {
			leaf := cur
			rest := ""
			if i := indexSep(cur); i >= 0 {
				leaf, rest = cur[:i], cur[i+len(perfdmf.CallpathSeparator):]
			}
			if leaf == outer {
				haveOuter = true
			} else if leaf == inner && haveOuter {
				return true
			}
			if rest == "" {
				break
			}
			cur = rest
		}
	}
	return false
}

func indexSep(s string) int {
	for i := 0; i+len(perfdmf.CallpathSeparator) <= len(s); i++ {
		if s[i:i+len(perfdmf.CallpathSeparator)] == perfdmf.CallpathSeparator {
			return i
		}
	}
	return -1
}

// SeriesPoint is one point of a scalability series.
type SeriesPoint struct {
	Threads    int
	Value      float64 // raw metric value (mean inclusive of main)
	Speedup    float64 // base value / value, scaled by base thread count
	Efficiency float64 // speedup / threads
}

// ScalingSeries computes relative speedup and efficiency across trials of
// the same application at different thread counts, using the mean inclusive
// value of the main event. Trials are ordered by their "threads" metadata
// (falling back to Trial.Threads). The smallest thread count is the base.
func ScalingSeries(trials []*perfdmf.Trial, metric string) ([]SeriesPoint, error) {
	if len(trials) == 0 {
		return nil, fmt.Errorf("analysis: ScalingSeries needs at least one trial")
	}
	pts := make([]SeriesPoint, 0, len(trials))
	for _, t := range trials {
		main := t.MainEvent(metric)
		if main == nil {
			return nil, fmt.Errorf("analysis: trial %q has no events with metric %q", t.Name, metric)
		}
		threads := t.Threads
		if s, ok := t.Metadata["threads"]; ok {
			if v, err := strconv.Atoi(s); err == nil {
				threads = v
			}
		}
		pts = append(pts, SeriesPoint{Threads: threads, Value: perfdmf.Mean(main.Inclusive[metric])})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].Threads < pts[j].Threads })
	base := pts[0]
	if base.Value == 0 {
		return nil, fmt.Errorf("analysis: base trial has zero %q", metric)
	}
	for i := range pts {
		if pts[i].Value > 0 {
			pts[i].Speedup = float64(base.Threads) * base.Value / pts[i].Value
			pts[i].Efficiency = pts[i].Speedup / float64(pts[i].Threads)
		}
	}
	return pts, nil
}

// PerEventSpeedup compares each flat event between a base trial and another
// trial (typically 1 thread vs p threads): base mean exclusive * baseThreads
// / other mean exclusive. Events absent from either trial are skipped.
func PerEventSpeedup(base, other *perfdmf.Trial, metric string) map[string]float64 {
	out := make(map[string]float64)
	for _, e := range base.Events {
		if e.IsCallpath() {
			continue
		}
		o := other.Event(e.Name)
		if o == nil {
			continue
		}
		bv := perfdmf.Mean(e.Exclusive[metric])
		ov := perfdmf.Mean(o.Exclusive[metric])
		if bv > 0 && ov > 0 {
			out[e.Name] = bv / ov
		}
	}
	return out
}
