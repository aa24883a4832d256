// Package perfdmf is the performance data management framework: the parallel
// profile data model (Application → Experiment → Trial, with per-thread
// inclusive/exclusive values for every instrumented event and metric), a
// file-backed repository for storing trials and analysis results, and
// readers/writers for several profile formats (native JSON snapshots, the
// TAU text format, and CSV export).
//
// It plays the role of PerfDMF in the paper: the library through which
// PerfExplorer accesses parallel profiles and saves analysis results, with
// first-class support for performance context (metadata) so that inference
// rules can justify conclusions with facts about how a trial was produced.
package perfdmf

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// CallpathSeparator joins parent and child event names in callpath events,
// following the TAU convention ("main => loop => kernel").
const CallpathSeparator = " => "

// TimeMetric is the canonical wall-clock metric name. Values are in
// microseconds, matching TAU profiles.
const TimeMetric = "TIME"

// Event is one instrumented code region (procedure, loop, callsite, or
// callpath) with per-thread measurements. All per-thread slices have
// length Trial.Threads.
type Event struct {
	Name      string               `json:"name"`
	Calls     []float64            `json:"calls"`
	Inclusive map[string][]float64 `json:"inclusive"` // metric → per-thread values
	Exclusive map[string][]float64 `json:"exclusive"` // metric → per-thread values
	Groups    []string             `json:"groups,omitempty"`
}

// IsCallpath reports whether the event is a callpath (contains a parent
// chain) rather than a flat region.
func (e *Event) IsCallpath() bool { return strings.Contains(e.Name, CallpathSeparator) }

// Trial is one execution of an instrumented application: a complete parallel
// profile over some set of metrics, plus the metadata (performance context)
// recorded when it ran.
type Trial struct {
	App        string            `json:"application"`
	Experiment string            `json:"experiment"`
	Name       string            `json:"name"`
	Threads    int               `json:"threads"`
	Metrics    []string          `json:"metrics"`
	Events     []*Event          `json:"events"`
	Metadata   map[string]string `json:"metadata,omitempty"`

	// indexMu guards the lazily built name index (and, through
	// EnsureEvent, the Events slice) so concurrent analysis goroutines can
	// look events up safely. Writers that restructure a trial still need
	// external coordination; concurrent Event/EnsureEvent is safe.
	indexMu sync.Mutex
	index   map[string]*Event
}

// NewTrial creates an empty trial for the given thread count.
func NewTrial(app, experiment, name string, threads int) *Trial {
	if threads <= 0 {
		panic(fmt.Sprintf("perfdmf: trial %q must have positive threads, got %d", name, threads))
	}
	return &Trial{
		App:        app,
		Experiment: experiment,
		Name:       name,
		Threads:    threads,
		Metadata:   make(map[string]string),
		index:      make(map[string]*Event),
	}
}

// HasMetric reports whether the trial carries the named metric.
func (t *Trial) HasMetric(metric string) bool {
	for _, m := range t.Metrics {
		if m == metric {
			return true
		}
	}
	return false
}

// AddMetric registers a metric name (idempotent).
func (t *Trial) AddMetric(metric string) {
	if !t.HasMetric(metric) {
		t.Metrics = append(t.Metrics, metric)
	}
}

// Event returns the named event, or nil. Safe for concurrent use.
func (t *Trial) Event(name string) *Event {
	t.indexMu.Lock()
	defer t.indexMu.Unlock()
	t.ensureIndex()
	return t.index[name]
}

// EnsureEvent returns the named event, creating it (with zeroed per-thread
// slices for every registered metric) if necessary. Safe for concurrent use.
func (t *Trial) EnsureEvent(name string) *Event {
	t.indexMu.Lock()
	defer t.indexMu.Unlock()
	t.ensureIndex()
	if e := t.index[name]; e != nil {
		return e
	}
	// Calls and every metric's two rows are cut from one block, each capped
	// at its own end so that an append to one cannot run into the next.
	th, nm := t.Threads, len(t.Metrics)
	rows := make([]float64, (1+2*nm)*th)
	e := &Event{
		Name:      name,
		Calls:     rows[:th:th],
		Inclusive: make(map[string][]float64, nm),
		Exclusive: make(map[string][]float64, nm),
	}
	for i, m := range t.Metrics {
		inc := rows[(1+2*i)*th:]
		e.Inclusive[m] = inc[:th:th]
		e.Exclusive[m] = inc[th : 2*th : 2*th]
	}
	t.Events = append(t.Events, e)
	t.index[name] = e
	return e
}

// EventNames returns the flat (non-callpath) event names, sorted.
func (t *Trial) EventNames() []string {
	var names []string
	for _, e := range t.Events {
		if !e.IsCallpath() {
			names = append(names, e.Name)
		}
	}
	sort.Strings(names)
	return names
}

// SetValue writes one (event, metric, thread) sample.
func (e *Event) SetValue(metric string, thread int, inclusive, exclusive float64) {
	ensureSlice(&e.Inclusive, metric, len(e.Calls))[thread] = inclusive
	ensureSlice(&e.Exclusive, metric, len(e.Calls))[thread] = exclusive
}

// AddValue accumulates one (event, metric, thread) sample.
func (e *Event) AddValue(metric string, thread int, inclusive, exclusive float64) {
	ensureSlice(&e.Inclusive, metric, len(e.Calls))[thread] += inclusive
	ensureSlice(&e.Exclusive, metric, len(e.Calls))[thread] += exclusive
}

func ensureSlice(m *map[string][]float64, metric string, n int) []float64 {
	if *m == nil {
		*m = make(map[string][]float64)
	}
	s, ok := (*m)[metric]
	if !ok {
		s = make([]float64, n)
		(*m)[metric] = s
	}
	return s
}

func (t *Trial) ensureIndex() {
	if t.index == nil {
		t.index = make(map[string]*Event, len(t.Events))
		for _, e := range t.Events {
			t.index[e.Name] = e
		}
	}
}

// MainEvent returns the flat event with the largest mean inclusive value of
// the given metric — the conventional "main" of the profile. It returns nil
// for an empty trial.
func (t *Trial) MainEvent(metric string) *Event {
	var best *Event
	bestVal := math.Inf(-1)
	for _, e := range t.Events {
		if e.IsCallpath() {
			continue
		}
		if v := Mean(e.Inclusive[metric]); v > bestVal {
			best, bestVal = e, v
		}
	}
	return best
}

// Validate checks the trial's shape: a positive thread count, unique event
// names, Threads entries in every calls, inclusive and exclusive row, and
// exclusive data beside every inclusive row. It is the check every reader
// of a trial makes (trialRows): what it accepts, the encoders write, the
// repository stores and the analysis operations read.
func (t *Trial) Validate() error {
	_, _, err := trialRows(t)
	return err
}

// Clone returns a deep copy of the trial.
func (t *Trial) Clone() *Trial {
	out := NewTrial(t.App, t.Experiment, t.Name, t.Threads)
	out.Metrics = append([]string(nil), t.Metrics...)
	for k, v := range t.Metadata {
		out.Metadata[k] = v
	}
	for _, e := range t.Events {
		ne := out.EnsureEvent(e.Name)
		copy(ne.Calls, e.Calls)
		ne.Groups = append([]string(nil), e.Groups...)
		for m, vals := range e.Inclusive {
			ne.Inclusive[m] = append([]float64(nil), vals...)
		}
		for m, vals := range e.Exclusive {
			ne.Exclusive[m] = append([]float64(nil), vals...)
		}
	}
	return out
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// Sum returns the total of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Correlation returns the Pearson correlation coefficient between xs and ys.
// It returns 0 when either input is constant or the lengths differ.
func Correlation(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
