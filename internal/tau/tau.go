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

// Profiler owns one ThreadProfile per thread. A Profiler and its
// ThreadProfiles belong to one goroutine, as the engine driving them does.
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
	sp := new(spare)
	for i := range p.threads {
		p.threads[i] = &ThreadProfile{id: i, callpathDepth: opts.CallpathDepth, accums: make(map[string]*accum), spare: sp}
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

// totals is what one event has been charged on one thread.
type totals struct {
	calls   uint64
	inclCyc uint64
	exclCyc uint64
	incl    counters.Set
	excl    counters.Set
}

// accum is the running total for one event on one thread.
type accum struct {
	totals
	step uint64     // the last step that charged it, see step.go
	gain *[2]totals // what the steps charged it, made when a step first does
}

// context is one calling context of a thread: an event entered under the
// chain of frames open at the time. It keeps the callpath name and, once
// they are charged, the totals of the event and of the callpath, so Enter
// builds no name and Leave looks neither up after the first time.
type context struct {
	event string
	path  string // callpath name ("" when not recorded)
	ev    *accum
	cp    *accum
	kids  []*context
}

type frame struct {
	ctx      *context
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
	root          context // the contexts entered with no frame open are its kids
	accums        map[string]*accum
	order         []string

	rec   *step  // the step being recorded, nil when none is
	last  *step  // the lists of the steps recorded, kept from one to the next
	spare *spare // the profiler's
}

// spare takes the charges Leave makes for a frame that has no callpath name
// or no parent, so that its one pass over the counters need not test for
// either. Nothing reads it; the threads of a profiler share one.
type spare struct {
	accum
	frame
}

// accum returns the running total for name, made on first use.
func (tp *ThreadProfile) accum(name string) *accum {
	a := tp.accums[name]
	if a == nil {
		a = &accum{}
		tp.accums[name] = a
		tp.order = append(tp.order, name)
	}
	return a
}

// Enter pushes an instrumented region. clock and cs are the thread's current
// virtual cycle count and counter sample; cs is copied, not retained.
func (tp *ThreadProfile) Enter(event string, clock uint64, cs *counters.Set) {
	parent := &tp.root
	if len(tp.stack) > 0 {
		parent = tp.stack[len(tp.stack)-1].ctx
	}
	tp.stack = append(tp.stack, frame{ctx: tp.kid(parent, event), enterCyc: clock, enter: *cs})
}

// kid returns the context of event entered under parent, made on first use.
// Only its position tells one context from another, so a parent has few.
func (tp *ThreadProfile) kid(parent *context, event string) *context {
	for _, k := range parent.kids {
		if k.event == event {
			return k
		}
	}
	path := ""
	if depth := len(tp.stack); tp.callpathDepth > 0 && depth > 0 && depth < tp.callpathDepth {
		prefix := parent.path
		if prefix == "" {
			prefix = parent.event
		}
		path = prefix + perfdmf.CallpathSeparator + event
	}
	k := &context{event: event, path: path}
	parent.kids = append(parent.kids, k)
	return k
}

// Leave pops the current region, checking that it matches event, and charges
// the measured deltas: inclusive to the event, inclusive-minus-children to
// the event's exclusive, and the inclusive total to the parent's child
// accumulator. A counter's inclusive delta saturates at zero, and so does
// its exclusive one.
func (tp *ThreadProfile) Leave(event string, clock uint64, cs *counters.Set) {
	if len(tp.stack) == 0 {
		panic(fmt.Sprintf("tau: thread %d: Leave(%q) with empty timer stack", tp.id, event))
	}
	// f stays valid after the pop: nothing is pushed before Leave returns.
	f := &tp.stack[len(tp.stack)-1]
	tp.stack = tp.stack[:len(tp.stack)-1]
	c := f.ctx
	if c.event != event {
		panic(fmt.Sprintf("tau: thread %d: Leave(%q) does not match open region %q", tp.id, event, c.event))
	}
	if clock < f.enterCyc {
		panic(fmt.Sprintf("tau: thread %d: clock moved backwards in %q (%d < %d)", tp.id, event, clock, f.enterCyc))
	}
	inclCyc := clock - f.enterCyc
	exclCyc := inclCyc - min(f.childCyc, inclCyc)

	if c.ev == nil {
		c.ev = tp.accum(c.event)
	}
	a, b, parent := c.ev, &tp.spare.accum, &tp.spare.frame
	if c.path != "" {
		if c.cp == nil {
			c.cp = tp.accum(c.path)
		}
		b = c.cp
	}
	if len(tp.stack) > 0 {
		parent = &tp.stack[len(tp.stack)-1]
	}
	a.charge(inclCyc, exclCyc)
	b.charge(inclCyc, exclCyc)
	parent.childCyc += inclCyc

	// One pass over the counters charges the event, its callpath and the
	// parent and, while a step is recorded, the step's gains of the first two.
	r := tp.rec
	if r == nil {
		for i := range cs {
			in := sub(cs[i], f.enter[i])
			ex := sub(in, f.child[i])
			a.incl[i] += in
			a.excl[i] += ex
			b.incl[i] += in
			b.excl[i] += ex
			parent.child[i] += in
		}
		return
	}
	if len(tp.stack) < r.base {
		r.spoiled = true
	}
	ga, gb := r.gain(a), &tp.spare.totals
	if b != &tp.spare.accum {
		gb = r.gain(b)
	}
	ga.charge(inclCyc, exclCyc)
	gb.charge(inclCyc, exclCyc)
	for i := range cs {
		in := sub(cs[i], f.enter[i])
		ex := sub(in, f.child[i])
		a.incl[i] += in
		a.excl[i] += ex
		b.incl[i] += in
		b.excl[i] += ex
		parent.child[i] += in
		ga.incl[i] += in
		ga.excl[i] += ex
		gb.incl[i] += in
		gb.excl[i] += ex
	}
}

// charge counts one call of inclCyc cycles, exclCyc of them exclusive.
func (t *totals) charge(inclCyc, exclCyc uint64) {
	t.calls++
	t.inclCyc += inclCyc
	t.exclCyc += exclCyc
}

// sub is a - b, or 0 where b is larger.
func sub(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
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
	a := tp.accum(event)
	a.addExclusive(cyc, &cs)
	if r := tp.rec; r != nil {
		r.gain(a).addExclusive(cyc, &cs)
	}
}

func (t *totals) addExclusive(cyc uint64, cs *counters.Set) {
	t.inclCyc += cyc
	t.exclCyc += cyc
	t.incl.Add(cs)
	t.excl.Add(cs)
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
				open[i] = f.ctx.event
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
