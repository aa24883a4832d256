package tau

import "perfknow/internal/counters"

// A step is one pass of a body the caller runs over and over — a solver
// sweep. While a step is recorded, each thread's Leave adds what it charges
// an event or callpath to the step's gains as well, and EndStep compares
// them with the previous step's. Once two steps in a row were charged the
// same, RepeatStep charges the last one's gains any number of times more
// without a Leave: integer adds, so the totals are exactly those the passes
// would have left.
//
// A step compares equal to the one before only when both left the timer
// stack as they found it — the same depth, no frame open at their start
// closed — so that the two started from the same stack. A step that charges
// an event for the first time, giving it its place in the profile's order,
// never compares equal: the event was in no earlier step's gains.

// step is what one thread was charged over one step.
type step struct {
	n       uint64 // numbers the step; an accum whose step is n is in list
	base    int    // the stack depth at its start
	spoiled bool   // it closed a frame open at its start

	// list holds the accums the step charged, in the order it first charged
	// them; each keeps what it was charged in its gain[n&1].
	list []*accum
	// prev is the previous step's list, and prevClean whether the two steps
	// can be compared.
	prev      []*accum
	prevClean bool

	// under is made for a thread with a frame open beneath its steps: that
	// frame's child totals at the start of the step, then what this step
	// and the previous one added to them.
	under *[3]childTotals
}

type childTotals struct {
	cyc uint64
	cs  counters.Set
}

// gain returns where the step keeps what it charged a, zeroed on the step's
// first charge of a.
func (r *step) gain(a *accum) *totals {
	if a.step != r.n {
		if a.gain == nil {
			a.gain = new([2]totals)
		}
		a.step = r.n
		a.gain[r.n&1] = totals{}
		r.list = append(r.list, a)
	}
	return &a.gain[r.n&1]
}

// StartStep starts recording a step on every thread. The first step of a
// repetition is compared with none.
func (p *Profiler) StartStep(first bool) {
	for _, tp := range p.threads {
		if tp.last == nil {
			tp.last = new(step)
		}
		r := tp.last
		r.n++
		r.base, r.spoiled = len(tp.stack), false
		r.list = r.list[:0]
		if first {
			r.prevClean = false
		}
		if r.base > 0 {
			if r.under == nil {
				r.under = new([3]childTotals)
			}
			top := &tp.stack[r.base-1]
			r.under[0] = childTotals{top.childCyc, top.child}
		}
		tp.rec = r
	}
}

// EndStep stops recording and reports whether every thread was charged
// exactly what it was charged over the step before, in the same order, and
// both steps started from the same stack.
func (p *Profiler) EndStep() bool {
	same := true
	for _, tp := range p.threads {
		r := tp.rec
		tp.rec = nil
		clean := !r.spoiled && len(tp.stack) == r.base
		if r.base > 0 && clean {
			top, u := &tp.stack[r.base-1], r.under
			u[1].cyc = top.childCyc - u[0].cyc
			for i := range u[1].cs {
				u[1].cs[i] = top.child[i] - u[0].cs[i]
			}
			same = same && u[1] == u[2]
			u[2] = u[1]
		}
		same = same && clean && r.prevClean && r.sameGains()
		r.prev, r.list = r.list, r.prev
		r.prevClean = clean
	}
	return same
}

// sameGains reports whether the step charged the accums the one before it
// charged, in the same order, the same.
func (r *step) sameGains() bool {
	if len(r.list) != len(r.prev) {
		return false
	}
	for i, a := range r.list {
		if a != r.prev[i] || a.gain[0] != a.gain[1] {
			return false
		}
	}
	return true
}

// RepeatStep charges every thread k times more what the last step charged
// it, as k more steps would have.
func (p *Profiler) RepeatStep(k uint64) {
	for _, tp := range p.threads {
		r := tp.last
		for _, a := range r.prev {
			a.add(&a.gain[r.n&1], k)
		}
		if r.base > 0 {
			top, g := &tp.stack[r.base-1], &r.under[2]
			top.childCyc += k * g.cyc
			for i := range top.child {
				top.child[i] += k * g.cs[i]
			}
		}
	}
}

// add charges t k times d.
func (t *totals) add(d *totals, k uint64) {
	t.calls += k * d.calls
	t.inclCyc += k * d.inclCyc
	t.exclCyc += k * d.exclCyc
	for i := range t.incl {
		t.incl[i] += k * d.incl[i]
		t.excl[i] += k * d.excl[i]
	}
}
