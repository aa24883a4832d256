// Package tau is the measurement runtime: the instrumentation layer that the
// compiler-inserted probes call at region entry and exit. It maintains, per
// thread of execution, a timer stack and an accumulator per instrumented
// event, producing TAU-style parallel profiles — per-thread inclusive and
// exclusive values for wall-clock time and every hardware counter, plus
// optional callpath events ("main => loop => kernel").
//
// The runtime is clock-agnostic: callers pass the executing thread's current
// virtual cycle count and counter sample at every Enter/Leave, so the same
// runtime serves the execution simulator and unit tests alike.
package tau

import (
	"fmt"
	"strings"

	"perfknow/internal/counters"
	"perfknow/internal/perfdmf"
)

// Options configures a Profiler.
type Options struct {
	Threads       int     // number of threads (or MPI ranks) to profile
	ClockHz       float64 // cycles per second, for the TIME metric
	CallpathDepth int     // 0 = flat profile only; n>0 records callpaths up to n frames
}

// Profiler owns one ThreadProfile per thread.
type Profiler struct {
	opts    Options
	threads []*ThreadProfile
}

// NewProfiler creates a profiler for opts.Threads threads.
func NewProfiler(opts Options) *Profiler {
	if opts.Threads <= 0 {
		panic(fmt.Sprintf("tau: Threads must be positive, got %d", opts.Threads))
	}
	if opts.ClockHz <= 0 {
		panic(fmt.Sprintf("tau: ClockHz must be positive, got %g", opts.ClockHz))
	}
	p := &Profiler{opts: opts, threads: make([]*ThreadProfile, opts.Threads)}
	for i := range p.threads {
		p.threads[i] = &ThreadProfile{id: i, callpathDepth: opts.CallpathDepth, accums: make(map[string]*accum)}
	}
	return p
}

// Thread returns the profile for thread id.
func (p *Profiler) Thread(id int) *ThreadProfile {
	if id < 0 || id >= len(p.threads) {
		panic(fmt.Sprintf("tau: thread %d out of range [0,%d)", id, len(p.threads)))
	}
	return p.threads[id]
}

// Threads returns the thread count.
func (p *Profiler) Threads() int { return len(p.threads) }

// accum is the running total for one event on one thread.
type accum struct {
	calls   uint64
	inclCyc uint64
	exclCyc uint64
	incl    counters.Set
	excl    counters.Set
}

type frame struct {
	event    string
	path     string // callpath name at this depth ("" when not recorded)
	enterCyc uint64
	enter    counters.Set
	childCyc uint64
	child    counters.Set
}

// ThreadProfile records one thread's measurements.
type ThreadProfile struct {
	id            int
	callpathDepth int
	stack         []frame
	accums        map[string]*accum
	order         []string
}

// Enter pushes an instrumented region. clock and cs are the thread's current
// virtual cycle count and counter sample; cs is copied, not retained.
func (tp *ThreadProfile) Enter(event string, clock uint64, cs *counters.Set) {
	path := ""
	if tp.callpathDepth > 0 && len(tp.stack) > 0 && len(tp.stack) < tp.callpathDepth {
		parent := &tp.stack[len(tp.stack)-1]
		prefix := parent.path
		if prefix == "" {
			prefix = parent.event
		}
		path = prefix + perfdmf.CallpathSeparator + event
	}
	tp.stack = append(tp.stack, frame{event: event, path: path, enterCyc: clock, enter: *cs})
}

// Leave pops the current region, checking that it matches event, and charges
// the measured deltas: inclusive to the event, inclusive-minus-children to
// the event's exclusive, and the inclusive total to the parent's child
// accumulator.
func (tp *ThreadProfile) Leave(event string, clock uint64, cs *counters.Set) {
	if len(tp.stack) == 0 {
		panic(fmt.Sprintf("tau: thread %d: Leave(%q) with empty timer stack", tp.id, event))
	}
	// f stays valid after the pop: nothing is pushed before Leave returns.
	f := &tp.stack[len(tp.stack)-1]
	tp.stack = tp.stack[:len(tp.stack)-1]
	if f.event != event {
		panic(fmt.Sprintf("tau: thread %d: Leave(%q) does not match open region %q", tp.id, event, f.event))
	}
	if clock < f.enterCyc {
		panic(fmt.Sprintf("tau: thread %d: clock moved backwards in %q (%d < %d)", tp.id, event, clock, f.enterCyc))
	}
	inclCyc := clock - f.enterCyc
	incl := cs.Delta(&f.enter)

	tp.charge(f.event, inclCyc, &incl, f.childCyc, &f.child)
	if f.path != "" {
		tp.charge(f.path, inclCyc, &incl, f.childCyc, &f.child)
	}

	if len(tp.stack) > 0 {
		parent := &tp.stack[len(tp.stack)-1]
		parent.childCyc += inclCyc
		parent.child.Add(&incl)
	}
}

func (tp *ThreadProfile) charge(name string, inclCyc uint64, incl *counters.Set, childCyc uint64, child *counters.Set) {
	a := tp.accums[name]
	if a == nil {
		a = &accum{}
		tp.accums[name] = a
		tp.order = append(tp.order, name)
	}
	a.calls++
	a.inclCyc += inclCyc
	a.incl.Add(incl)
	excl := incl.Delta(child)
	exclCyc := inclCyc - minU64(childCyc, inclCyc)
	a.exclCyc += exclCyc
	a.excl.Add(&excl)
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// InclusiveCycles returns the inclusive cycle total recorded for an event on
// this thread (0 if the event never completed).
func (tp *ThreadProfile) InclusiveCycles(event string) uint64 {
	if a := tp.accums[event]; a != nil {
		return a.inclCyc
	}
	return 0
}

// ExclusiveCycles returns the exclusive cycle total for an event.
func (tp *ThreadProfile) ExclusiveCycles(event string) uint64 {
	if a := tp.accums[event]; a != nil {
		return a.exclCyc
	}
	return 0
}

// Calls returns the completed call count for an event.
func (tp *ThreadProfile) Calls(event string) uint64 {
	if a := tp.accums[event]; a != nil {
		return a.calls
	}
	return 0
}

// AddExclusive charges extra cycles and counters directly to an event's
// inclusive and exclusive totals without a timer push/pop. The execution
// engine uses this to attribute runtime overheads (barrier wait, schedule
// dispatch, fork/join) to synthetic events such as "omp_barrier".
func (tp *ThreadProfile) AddExclusive(event string, cyc uint64, cs counters.Set) {
	a := tp.accums[event]
	if a == nil {
		a = &accum{}
		tp.accums[event] = a
		tp.order = append(tp.order, event)
		a.calls = 0
	}
	a.inclCyc += cyc
	a.exclCyc += cyc
	a.incl.Add(&cs)
	a.excl.Add(&cs)
}

// Trial assembles the per-thread accumulations into a perfdmf.Trial. Every
// counter that is non-zero anywhere becomes a metric, and cycle totals are
// additionally exported as the TIME metric in microseconds. It returns an
// error if any thread still has open timers.
func (p *Profiler) Trial(app, experiment, name string) (*perfdmf.Trial, error) {
	for _, tp := range p.threads {
		if len(tp.stack) != 0 {
			open := make([]string, len(tp.stack))
			for i, f := range tp.stack {
				open[i] = f.event
			}
			return nil, fmt.Errorf("tau: thread %d has open timers at snapshot: %s",
				tp.id, strings.Join(open, " > "))
		}
	}

	t := perfdmf.NewTrial(app, experiment, name, len(p.threads))
	t.AddMetric(perfdmf.TimeMetric)

	// Decide the metric list: any counter non-zero on any thread/event.
	var present [counters.NumIDs]bool
	for _, tp := range p.threads {
		for _, a := range tp.accums {
			for id := counters.ID(0); id < counters.NumIDs; id++ {
				if a.incl.Get(id) != 0 {
					present[id] = true
				}
			}
		}
	}
	for id := counters.ID(0); id < counters.NumIDs; id++ {
		if present[id] {
			t.AddMetric(id.Name())
		}
	}

	// Event order: union of per-thread orders, first-seen-first.
	seen := make(map[string]bool)
	var events []string
	for _, tp := range p.threads {
		for _, name := range tp.order {
			if !seen[name] {
				seen[name] = true
				events = append(events, name)
			}
		}
	}

	// Per event, each metric's pair of per-thread rows is fetched once and
	// filled thread by thread. EnsureEvent made a row for every metric added
	// above, and a thread that never completed the event keeps its zeros.
	usecPerCyc := 1e6 / p.opts.ClockHz
	accums := make([]*accum, len(p.threads))
	for _, ev := range events {
		e := t.EnsureEvent(ev)
		for th, tp := range p.threads {
			accums[th] = tp.accums[ev]
			if a := accums[th]; a != nil {
				e.Calls[th] = float64(a.calls)
			}
		}
		incl, excl := e.Inclusive[perfdmf.TimeMetric], e.Exclusive[perfdmf.TimeMetric]
		for th, a := range accums {
			if a != nil {
				incl[th], excl[th] = float64(a.inclCyc)*usecPerCyc, float64(a.exclCyc)*usecPerCyc
			}
		}
		for id := counters.ID(0); id < counters.NumIDs; id++ {
			if !present[id] {
				continue
			}
			name := id.Name()
			incl, excl := e.Inclusive[name], e.Exclusive[name]
			for th, a := range accums {
				if a != nil {
					incl[th], excl[th] = float64(a.incl[id]), float64(a.excl[id])
				}
			}
		}
	}
	return t, nil
}
