package analysis

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"perfknow/internal/perfdmf"
)

// This file is the analysis engine: the public operations pivot the trial
// into a perfdmf.Columns view and run tight loops over the flat blocks,
// instead of chasing map[string][]float64 cells per event. The row-oriented
// implementations they replaced live in row_oracle_test.go (the *Row
// functions) as the differential oracle; differential_test.go holds the two
// byte-identical over every operation, so the contract here is strict:
// identical float values in identical summation order, identical presence
// of metrics on events, identical error messages.
//
// A trial that cannot be pivoted — non-positive thread count, a duplicate
// event name, a per-thread slice of the wrong length: shapes Trial.Validate
// rejects with the same message — is an invalid argument, not a reason to
// compute some other way. Operations with an error result return that
// error; the others return their empty result (no rows, or emptyLike for a
// trial). invalid_test.go holds every operation to that.

// emptyLike is the empty result of a trial-returning operation that has no
// error result: the source's coordinates and metric list, no events.
func emptyLike(t *perfdmf.Trial, threads int) *perfdmf.Trial {
	if threads < 1 {
		threads = 1
	}
	out := perfdmf.NewTrial(t.App, t.Experiment, t.Name, threads)
	out.Metrics = append([]string(nil), t.Metrics...)
	return out
}

// ensureCol returns the metric's column, creating an all-present one if
// missing, and forcing presence everywhere if it exists (the columnar
// equivalent of writing the metric to every event via SetValue).
func ensureCol(c *perfdmf.Columns, metric string) *perfdmf.MetricColumn {
	if col := c.Col(metric); col != nil {
		for i := range col.IncPresent {
			col.IncPresent[i] = true
			col.ExcPresent[i] = true
		}
		return col
	}
	return c.AddColumn(metric)
}

// buildColumns allocates an output Columns shell: the metric list is kept
// verbatim (mirroring the row ops that copy Metrics directly), columns are
// deduplicated, zero-filled and all-present — exactly what EnsureEvent
// produces for registered metrics on the row side.
func buildColumns(app, experiment, name string, threads int, metrics, events []string) *perfdmf.Columns {
	c := perfdmf.NewColumns(app, experiment, name, threads)
	c.Metrics = append([]string(nil), metrics...)
	c.EventNames = append([]string(nil), events...)
	c.Groups = make([][]string, len(events))
	c.Calls = make([]float64, len(events)*threads)
	seen := make(map[string]bool, len(metrics))
	for _, m := range metrics {
		if seen[m] {
			continue
		}
		seen[m] = true
		c.AddColumn(m)
	}
	return c
}

func copyMetadata(src map[string]string, extra int) map[string]string {
	out := make(map[string]string, len(src)+extra)
	for k, v := range src {
		out[k] = v
	}
	return out
}

// DeriveMetric adds a new metric computed element-wise from two existing
// metrics to a copy of the trial, returning the copy and the new metric's
// name. Division by zero yields zero rather than infinity, because profile
// cells with no samples are legitimately zero.
func DeriveMetric(t *perfdmf.Trial, lhs, rhs string, op Op) (*perfdmf.Trial, string, error) {
	if !t.HasMetric(lhs) {
		return nil, "", fmt.Errorf("analysis: trial %q has no metric %q", t.Name, lhs)
	}
	if !t.HasMetric(rhs) {
		return nil, "", fmt.Errorf("analysis: trial %q has no metric %q", t.Name, rhs)
	}
	c, err := perfdmf.ColumnsFromTrial(t)
	if err != nil {
		return nil, "", err
	}
	name := DeriveMetricName(lhs, rhs, op)
	// The pivot is already a private deep copy, so it doubles as the
	// output. Clone zero-fills every registered metric on every event;
	// MarkRegisteredPresent reproduces that.
	c.MarkRegisteredPresent()
	ensureCol(c, name)
	dst, lc, rc := c.Col(name), c.Col(lhs), c.Col(rhs)
	for i := range dst.Inc {
		dst.Inc[i] = op.apply(lc.Inc[i], rc.Inc[i])
		dst.Exc[i] = op.apply(lc.Exc[i], rc.Exc[i])
	}
	return c.Trial(), name, nil
}

// DeriveScaled adds metric*scale as a new metric named like "(M * 2.5)".
func DeriveScaled(t *perfdmf.Trial, metric string, scale float64) (*perfdmf.Trial, string, error) {
	if !t.HasMetric(metric) {
		return nil, "", fmt.Errorf("analysis: trial %q has no metric %q", t.Name, metric)
	}
	c, err := perfdmf.ColumnsFromTrial(t)
	if err != nil {
		return nil, "", err
	}
	name := "(" + metric + " * " + strconv.FormatFloat(scale, 'g', -1, 64) + ")"
	c.MarkRegisteredPresent()
	ensureCol(c, name)
	dst, src := c.Col(name), c.Col(metric)
	for i := range dst.Inc {
		dst.Inc[i] = src.Inc[i] * scale
		dst.Exc[i] = src.Exc[i] * scale
	}
	return c.Trial(), name, nil
}

// DeriveSum adds metric(a)+metric(b)+... as one combined metric.
func DeriveSum(t *perfdmf.Trial, metrics []string) (*perfdmf.Trial, string, error) {
	if len(metrics) == 0 {
		return nil, "", fmt.Errorf("analysis: DeriveSum needs at least one metric")
	}
	for _, m := range metrics {
		if !t.HasMetric(m) {
			return nil, "", fmt.Errorf("analysis: trial %q has no metric %q", t.Name, m)
		}
	}
	c, err := perfdmf.ColumnsFromTrial(t)
	if err != nil {
		return nil, "", err
	}
	name := "(sum"
	for _, m := range metrics {
		name += " " + m
	}
	name += ")"
	c.MarkRegisteredPresent()
	ensureCol(c, name)
	dst := c.Col(name)
	srcs := make([]*perfdmf.MetricColumn, len(metrics))
	for i, m := range metrics {
		srcs[i] = c.Col(m)
	}
	// Accumulation order per cell matches the row loop: metrics in
	// argument order, starting from zero.
	for i := range dst.Inc {
		var inc, exc float64
		for _, src := range srcs {
			inc += src.Inc[i]
			exc += src.Exc[i]
		}
		dst.Inc[i] = inc
		dst.Exc[i] = exc
	}
	return c.Trial(), name, nil
}

// Reduce collapses a trial to a single synthetic "thread" holding the
// chosen statistic of every (event, metric) cell — the TrialMeanResult /
// TrialTotalResult views of PerfExplorer.
func Reduce(t *perfdmf.Trial, r Reduction) *perfdmf.Trial {
	c, err := perfdmf.ColumnsFromTrial(t)
	if err != nil {
		return emptyLike(t, 1)
	}
	th := c.Threads
	out := buildColumns(t.App, t.Experiment, t.Name, 1, t.Metrics, c.EventNames)
	out.Metadata = copyMetadata(c.Metadata, 1)
	out.Metadata["reduction"] = r.String()
	for ev := range c.EventNames {
		out.Groups[ev] = append([]string(nil), c.Groups[ev]...)
		out.Calls[ev] = reduce(c.Calls[ev*th:(ev+1)*th], r)
	}
	for _, m := range out.Metrics {
		src, dst := c.Col(m), out.Col(m)
		if src == nil {
			continue
		}
		for ev := range c.EventNames {
			// An absent metric reduces to 0 on the row side
			// (reduce(nil)); the zero-filled block is already 0.
			if src.IncPresent[ev] {
				dst.Inc[ev] = reduce(src.Inc[ev*th:(ev+1)*th], r)
			}
			if src.ExcPresent[ev] {
				dst.Exc[ev] = reduce(src.Exc[ev*th:(ev+1)*th], r)
			}
		}
	}
	return out.Trial()
}

// ExtractEvents returns a copy of the trial restricted to the named events.
func ExtractEvents(t *perfdmf.Trial, names []string) *perfdmf.Trial {
	c, err := perfdmf.ColumnsFromTrial(t)
	if err != nil {
		return emptyLike(t, t.Threads)
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	var kept []int
	var keptNames []string
	for ev, name := range c.EventNames {
		if want[name] {
			kept = append(kept, ev)
			keptNames = append(keptNames, name)
		}
	}
	th := c.Threads
	out := buildColumns(t.App, t.Experiment, t.Name, th, t.Metrics, keptNames)
	out.Metadata = copyMetadata(c.Metadata, 0)
	for oi, ev := range kept {
		out.Groups[oi] = append([]string(nil), c.Groups[ev]...)
		copy(out.Calls[oi*th:(oi+1)*th], c.Calls[ev*th:])
	}
	for _, m := range out.Metrics {
		src, dst := c.Col(m), out.Col(m)
		if src == nil {
			continue
		}
		for oi, ev := range kept {
			copy(dst.Inc[oi*th:(oi+1)*th], src.Inc[ev*th:])
			copy(dst.Exc[oi*th:(oi+1)*th], src.Exc[ev*th:])
		}
	}
	return out.Trial()
}

// TopN returns the n flat events with the largest mean exclusive value of
// the metric, in descending order; n < 0 asks for none.
func TopN(t *perfdmf.Trial, metric string, n int) []string {
	n = max(n, 0)
	c, err := perfdmf.ColumnsFromTrial(t)
	if err != nil {
		return nil
	}
	col := c.Col(metric)
	th := c.Threads
	type ev struct {
		name string
		val  float64
	}
	var evs []ev
	for i, name := range c.EventNames {
		if strings.Contains(name, perfdmf.CallpathSeparator) {
			continue
		}
		val := 0.0
		if col != nil {
			// Absent cells are zero-filled, so the block mean equals
			// the row side's Mean over a present slice or Mean(nil)=0.
			val = perfdmf.Mean(col.Exc[i*th : (i+1)*th])
		}
		evs = append(evs, ev{name, val})
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

// ExclusiveStats computes per-event statistics of the exclusive metric
// across threads, for flat events, sorted by descending mean.
func ExclusiveStats(t *perfdmf.Trial, metric string) []EventStat {
	c, err := perfdmf.ColumnsFromTrial(t)
	if err != nil {
		return nil
	}
	return eventStatsColumnar(c, metric, false)
}

// InclusiveStats is ExclusiveStats over inclusive values.
func InclusiveStats(t *perfdmf.Trial, metric string) []EventStat {
	c, err := perfdmf.ColumnsFromTrial(t)
	if err != nil {
		return nil
	}
	return eventStatsColumnar(c, metric, true)
}

func eventStatsColumnar(c *perfdmf.Columns, metric string, inclusive bool) []EventStat {
	col := c.Col(metric)
	if col == nil {
		return nil
	}
	block, present := col.Exc, col.ExcPresent
	if inclusive {
		block, present = col.Inc, col.IncPresent
	}
	th := c.Threads
	var out []EventStat
	for i, name := range c.EventNames {
		if !present[i] || strings.Contains(name, perfdmf.CallpathSeparator) {
			continue
		}
		vals := block[i*th : (i+1)*th]
		s := EventStat{Event: name, Threads: th, Mean: perfdmf.Mean(vals),
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

// KMeans clusters the threads of a trial into k groups on their per-event
// exclusive values of the metric. Initialization is deterministic
// (farthest-point seeding from thread 0), so results are reproducible.
func KMeans(t *perfdmf.Trial, metric string, k int, maxIter int) (*Clustering, error) {
	c, err := perfdmf.ColumnsFromTrial(t)
	if err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("analysis: k must be positive, got %d", k)
	}
	if k > c.Threads {
		return nil, fmt.Errorf("analysis: k=%d exceeds thread count %d", k, c.Threads)
	}
	col := c.Col(metric)
	var events []string
	var blocks [][]float64
	th := c.Threads
	for i, name := range c.EventNames {
		if strings.Contains(name, perfdmf.CallpathSeparator) {
			continue
		}
		if col == nil || !col.ExcPresent[i] {
			continue
		}
		events = append(events, name)
		blocks = append(blocks, col.Exc[i*th:(i+1)*th])
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("analysis: trial %q has no events with metric %q", t.Name, metric)
	}
	feats := make([][]float64, th)
	for thr := range feats {
		row := make([]float64, len(events))
		for j := range blocks {
			row[j] = blocks[j][thr]
		}
		feats[thr] = row
	}
	return kmeansCore(events, feats, k, maxIter)
}

// DiffTrials returns a - b element-wise over the union of events and the
// intersection of metrics. Both trials must have the same thread count.
// Missing events in either trial are treated as zero, so a regression shows
// up positive and an improvement negative.
func DiffTrials(a, b *perfdmf.Trial) (*perfdmf.Trial, error) {
	if a.Threads != b.Threads {
		return nil, fmt.Errorf("analysis: diff of %d-thread and %d-thread trials", a.Threads, b.Threads)
	}
	ca, err := perfdmf.ColumnsFromTrial(a)
	if err != nil {
		return nil, err
	}
	cb, err := perfdmf.ColumnsFromTrial(b)
	if err != nil {
		return nil, err
	}
	var metrics []string
	for _, m := range a.Metrics {
		if b.HasMetric(m) {
			metrics = append(metrics, m)
		}
	}
	if len(metrics) == 0 {
		return nil, fmt.Errorf("analysis: trials %q and %q share no metrics", a.Name, b.Name)
	}
	union, idxA, idxB := unionIndexes(ca, cb)
	th := a.Threads
	out := buildColumns(a.App, a.Experiment, a.Name+" - "+b.Name, th, dedup(metrics), union)
	out.Metadata = map[string]string{
		"algebra":    "difference",
		"minuend":    a.Name,
		"subtrahend": b.Name,
	}
	diffBlock(out.Calls, ca.Calls, cb.Calls, idxA, idxB, th)
	for _, m := range out.Metrics {
		colA, colB, dst := ca.Col(m), cb.Col(m), out.Col(m)
		diffBlock(dst.Inc, colA.Inc, colB.Inc, idxA, idxB, th)
		diffBlock(dst.Exc, colA.Exc, colB.Exc, idxA, idxB, th)
	}
	return out.Trial(), nil
}

// diffBlock writes dst[u] = a[idxA[u]] - b[idxB[u]] per thread, with a
// missing event (index -1) contributing zero.
func diffBlock(dst, a, b []float64, idxA, idxB []int, th int) {
	for u := range idxA {
		for t := 0; t < th; t++ {
			var av, bv float64
			if idxA[u] >= 0 {
				av = a[idxA[u]*th+t]
			}
			if idxB[u] >= 0 {
				bv = b[idxB[u]*th+t]
			}
			dst[u*th+t] = av - bv
		}
	}
}

// unionIndexes returns the union of the two event dictionaries in
// first-seen order (a's events, then b's new ones) plus each union entry's
// index in a and in b (-1 when absent).
func unionIndexes(a, b *perfdmf.Columns) (names []string, idxA, idxB []int) {
	names = append([]string(nil), a.EventNames...)
	for _, n := range b.EventNames {
		if _, ok := a.EventIndex(n); !ok {
			names = append(names, n)
		}
	}
	idxA = make([]int, len(names))
	idxB = make([]int, len(names))
	for u, n := range names {
		idxA[u], idxB[u] = -1, -1
		if i, ok := a.EventIndex(n); ok {
			idxA[u] = i
		}
		if i, ok := b.EventIndex(n); ok {
			idxB[u] = i
		}
	}
	return names, idxA, idxB
}

func dedup(xs []string) []string {
	seen := make(map[string]bool, len(xs))
	var out []string
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// MergeTrials sums a list of trials over the union of their events and the
// intersection of their metrics (e.g. combining repeated runs). All trials
// must have the same thread count.
func MergeTrials(trials []*perfdmf.Trial) (*perfdmf.Trial, error) {
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
	cs := make([]*perfdmf.Columns, len(trials))
	for i, t := range trials {
		// Validate accepts a metric registered twice; a sum that counted it
		// twice (what the row oracle's AddValue loop does) would not be a
		// merge, so it is refused by name.
		seen := make(map[string]bool, len(t.Metrics))
		for _, m := range t.Metrics {
			if seen[m] {
				return nil, fmt.Errorf("analysis: trial %q registers metric %q twice", t.Name, m)
			}
			seen[m] = true
		}
		c, err := perfdmf.ColumnsFromTrial(t)
		if err != nil {
			return nil, err
		}
		cs[i] = c
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
	// Union of events in first-seen order across trials.
	var union []string
	outIdx := make(map[string]int)
	for _, c := range cs {
		for _, n := range c.EventNames {
			if _, ok := outIdx[n]; !ok {
				outIdx[n] = len(union)
				union = append(union, n)
			}
		}
	}
	th := first.Threads
	out := buildColumns(first.App, first.Experiment, "merged", th, metrics, union)
	out.Metadata = map[string]string{
		"algebra": "merge",
		"members": fmt.Sprintf("%d", len(trials)),
	}
	dsts := make([]*perfdmf.MetricColumn, len(metrics))
	for i, m := range metrics {
		dsts[i] = out.Col(m)
	}
	// Accumulate trial by trial, event by event — the same += sequence per
	// cell as the row oracle, so the float results match bit for bit. Absent
	// cells contribute an explicit +0 (the zero-filled block).
	for _, c := range cs {
		srcs := make([]*perfdmf.MetricColumn, len(metrics))
		for i, m := range metrics {
			srcs[i] = c.Col(m)
		}
		for ev, name := range c.EventNames {
			oi := outIdx[name]
			for t := 0; t < th; t++ {
				out.Calls[oi*th+t] += c.Calls[ev*th+t]
				for i := range metrics {
					dsts[i].Inc[oi*th+t] += srcs[i].Inc[ev*th+t]
					dsts[i].Exc[oi*th+t] += srcs[i].Exc[ev*th+t]
				}
			}
		}
	}
	return out.Trial(), nil
}

// RelativeChange compares per-event means between two trials.
func RelativeChange(base, other *perfdmf.Trial, metric string, minBase float64) []Change {
	cb, errB := perfdmf.ColumnsFromTrial(base)
	co, errO := perfdmf.ColumnsFromTrial(other)
	if errB != nil || errO != nil {
		return nil
	}
	colB, colO := cb.Col(metric), co.Col(metric)
	th := cb.Threads
	var out []Change
	for ev, name := range cb.EventNames {
		if strings.Contains(name, perfdmf.CallpathSeparator) {
			continue
		}
		bv := 0.0
		if colB != nil {
			bv = perfdmf.Mean(colB.Exc[ev*th : (ev+1)*th])
		}
		if bv < minBase || bv == 0 {
			continue
		}
		oi, ok := co.EventIndex(name)
		if !ok {
			continue
		}
		ov := 0.0
		if colO != nil {
			ov = perfdmf.Mean(colO.Exc[oi*co.Threads : (oi+1)*co.Threads])
		}
		out = append(out, Change{Event: name, Base: bv, Other: ov, Fraction: (ov - bv) / bv})
	}
	sortChanges(out)
	return out
}
