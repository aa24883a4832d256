package sim

import "perfknow/internal/counters"

// An SPMD solver does the same work in every sweep, so Repeat simulates
// sweeps until one does exactly what the sweep before it did, from the same
// state, and then charges the remaining sweeps without running them.
//
// A sweep's state, as far as what it does can depend on it, is every
// thread's clock relative to thread 0's (each runtime construct works on
// clock differences: barriers, fork, dispatch, message arrival), the page
// placement (machine.Placements), and each thread's open timers (see
// tau.StartStep). What it gains is each thread's clock and counter deltas
// and, per event and callpath, what the profiler charged. A sweep qualifies
// when it starts from the state the sweep before it started from, gains
// exactly what that one gained, places no page and charges no event for the
// first time: then every later sweep would start from that state again and
// gain the same, and adding k times the gains — integer adds — leaves what k
// more sweeps would have left, bit for bit.

// repetition is what Repeat keeps of the sweeps it has run.
type repetition struct {
	on       bool
	moves    uint64        // machine.Placements at the start of the sweep
	threads  []sweptThread // one per engine thread
	off      bool          // run every sweep; only tests set it
	replayed uint64        // sweeps charged without running; tests read it
}

// sweptThread is one thread's start and gains over the last sweep.
type sweptThread struct {
	rel    uint64 // clock minus thread 0's at the start, modulo 2^64
	clock  uint64 // clock at the start
	cs     counters.Set
	dClock uint64 // what the sweep added to the clock
	dCS    counters.Set
}

// Repeat runs body n times: a loop of n solver sweeps. body takes no index,
// and what it does must depend only on the engine's state — on clock
// differences, page placement and the open timers, never on how often it
// has run or on a clock's or counter's absolute value. Repeat may not be
// called from a repeated body.
func (e *Engine) Repeat(n int, body func()) {
	r := &e.rep
	if r.on {
		panic("sim: Repeat inside a repeated body")
	}
	if r.off {
		for i := 0; i < n; i++ {
			body()
		}
		return
	}
	r.on = true
	defer func() { r.on = false }()
	if r.threads == nil {
		r.threads = make([]sweptThread, len(e.threads))
	}
	for i := 0; i < n; i++ {
		same := e.startSweep(i == 0)
		body()
		if e.endSweep(same) && i+1 < n {
			e.replay(uint64(n - i - 1))
			return
		}
	}
}

// startSweep notes the state a sweep starts from and starts recording what
// the profiler charges. It reports whether the state is the one the
// previous sweep of this Repeat started from.
func (e *Engine) startSweep(first bool) bool {
	r := &e.rep
	moves := e.mach.Placements()
	same := !first && moves == r.moves
	r.moves = moves
	master := e.threads[0].Clock
	for i, t := range e.threads {
		s := &r.threads[i]
		rel := t.Clock - master
		same = same && rel == s.rel
		s.rel, s.clock, s.cs = rel, t.Clock, t.CS
	}
	e.prof.StartStep(first)
	return same
}

// endSweep keeps what the sweep gained and reports whether it qualifies:
// same says it started from the state the one before it started from.
func (e *Engine) endSweep(same bool) bool {
	r := &e.rep
	same = e.prof.EndStep() && same && e.mach.Placements() == r.moves
	for i, t := range e.threads {
		s := &r.threads[i]
		d := t.Clock - s.clock
		same = same && d == s.dClock
		s.dClock = d
		for j := range t.CS {
			d := t.CS[j] - s.cs[j]
			same = same && d == s.dCS[j]
			s.dCS[j] = d
		}
	}
	return same
}

// replay charges k more sweeps of the gains of the last one.
func (e *Engine) replay(k uint64) {
	r := &e.rep
	for i, t := range e.threads {
		s := &r.threads[i]
		t.Clock += k * s.dClock
		for j := range t.CS {
			t.CS[j] += k * s.dCS[j]
		}
	}
	e.prof.RepeatStep(k)
	r.replayed += k
}
