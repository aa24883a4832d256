package sim

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"perfknow/internal/counters"
	"perfknow/internal/machine"
	"perfknow/internal/perfdmf"
)

// repeatPair is an engine that replays repeated sweeps and one that runs
// every sweep, each on a machine of its own, driven with the same operations.
type repeatPair struct {
	shipped, plain *Engine
	regions        map[*Engine][]*machine.Region
}

func newRepeatPair(threads int) *repeatPair {
	p := &repeatPair{regions: map[*Engine][]*machine.Region{}}
	for _, e := range []**Engine{&p.shipped, &p.plain} {
		*e = NewEngine(machine.New(machine.Altix(8, 2)), Options{Threads: threads, CallpathDepth: 3})
	}
	p.plain.rep.off = true
	return p
}

func (p *repeatPair) each(f func(e *Engine)) { f(p.shipped); f(p.plain) }

// same fails the test unless every thread of the pair has the same clock and
// counters.
func (p *repeatPair) same(t *testing.T, when string) {
	t.Helper()
	for i := range p.shipped.threads {
		a, b := p.shipped.threads[i], p.plain.threads[i]
		if a.Clock != b.Clock || a.CS != b.CS {
			t.Fatalf("%s: thread %d: replaying clock %d counters %v, running every sweep clock %d counters %v",
				when, i, a.Clock, a.CS, b.Clock, b.CS)
		}
	}
}

// sweepOp is one operation of a random sweep body, applied to one engine
// with its regions. What it does depends on the engine's state only.
type sweepOp func(e *Engine, regions []*machine.Region)

// randomSweepOp draws an operation from the pool the property test builds
// bodies from. outer says the master has "main" open beneath the body.
func randomSweepOp(rng *rand.Rand, sizes []int64, threads int, outer bool) sweepOp {
	events := []string{"solve", "halo", "precond", "dot"}
	ev := events[rng.Intn(len(events))]
	r := rng.Intn(len(sizes))
	off := rng.Int63n(sizes[r])
	length := 1 + rng.Int63n(sizes[r]-off)
	node := rng.Intn(8)
	switch rng.Intn(10) {
	case 0, 1:
		// A parallel region of kernels, some first-touching a partly
		// placed region.
		specs := make([]kernelSpec, 1+rng.Intn(4))
		for i := range specs {
			specs[i] = randomSpec(rng, sizes)
		}
		sched := []Schedule{{Kind: StaticSched}, {Kind: DynamicSched, Chunk: 1}, {Kind: GuidedSched}}[rng.Intn(3)]
		n := 1 + rng.Intn(3*threads)
		return func(e *Engine, regions []*machine.Region) {
			e.ParallelFor(ev, n, sched, func(t *Thread, i int) { t.Compute(specs[i%len(specs)].on(regions)) })
		}
	case 2:
		return func(e *Engine, regions []*machine.Region) { regions[r].Touch(off, length, node) }
	case 3:
		// Place moves a home in every sweep it runs in: the sweep never
		// qualifies, and nothing may be replayed across it.
		if rng.Intn(4) != 0 {
			return func(e *Engine, regions []*machine.Region) { e.MPIBarrier() }
		}
		return func(e *Engine, regions []*machine.Region) { regions[r].Place(off, length, node) }
	case 4:
		msgs := make([]Message, 1+rng.Intn(2*threads))
		for i := range msgs {
			msgs[i] = Message{From: rng.Intn(threads), To: rng.Intn(threads), Bytes: rng.Int63n(1 << 16)}
		}
		return func(e *Engine, regions []*machine.Region) { e.Exchange(msgs) }
	case 5:
		bytes := rng.Int63n(64)
		return func(e *Engine, regions []*machine.Region) { e.AllReduce(bytes) }
	case 6:
		// Nested timers on one thread, around kernels.
		th, inner := rng.Intn(threads), events[rng.Intn(len(events))]
		k := randomSpec(rng, sizes)
		return func(e *Engine, regions []*machine.Region) {
			t := e.threads[th]
			t.Enter(ev)
			t.Compute(k.on(regions))
			t.Enter(inner)
			t.Compute(k.on(regions))
			t.Leave(inner)
			t.Leave(ev)
		}
	case 7:
		// An event first opened in a later sweep: each sweep homes the first
		// unplaced page of the region on the thread's node, and once none is
		// left the thread enters "late".
		th := rng.Intn(threads)
		return func(e *Engine, regions []*machine.Region) {
			t, reg := e.threads[th], regions[r]
			for p := 0; p < reg.Pages(); p++ {
				if at := int64(p) * e.cfg.PageBytes; reg.HomeOf(at) < 0 {
					reg.Touch(at, 1, t.Node())
					return
				}
			}
			t.Enter("late")
			t.Compute(Kernel{IntOps: 5000})
			t.Leave("late")
		}
	case 8:
		if outer && rng.Intn(3) == 0 {
			// The master closes the timer open beneath the body and opens
			// it again: the stack looks the same after every sweep, but the
			// frame is not the one the sweep started under.
			return func(e *Engine, regions []*machine.Region) {
				m := e.Master()
				m.Leave("main")
				m.Compute(Kernel{IntOps: 700})
				m.Enter("main")
			}
		}
		fallthrough
	default:
		return func(e *Engine, regions []*machine.Region) {
			e.ParallelRegion(ev, func(tm *Team) { tm.Barrier() })
		}
	}
}

// Random bodies from the pool, each run under Repeat by one engine and as a
// plain loop by the other, some under a timer the master opened: after every
// Repeat each thread has the same clock and counters, and at the end the two
// trials encode to the same bytes. The replaying engine must have replayed
// sweeps, or the test proves nothing.
func TestRepeatMatchesPlainLoop(t *testing.T) {
	var replayed, sweeps int
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		threads := 1 + rng.Intn(8)
		p := newRepeatPair(threads)
		page := p.shipped.cfg.PageBytes
		sizes := make([]int64, 1+rng.Intn(3))
		for i := range sizes {
			sizes[i] = page * int64(1+rng.Intn(12))
			p.each(func(e *Engine) {
				p.regions[e] = append(p.regions[e], e.mach.AllocRegion(fmt.Sprintf("r%d", i), sizes[i]))
			})
		}
		outer := rng.Intn(2) == 0
		if outer {
			p.each(func(e *Engine) { e.Master().Enter("main") })
		}
		for rep := 0; rep < 4; rep++ {
			body := make([]sweepOp, 1+rng.Intn(6))
			for i := range body {
				body[i] = randomSweepOp(rng, sizes, threads, outer)
			}
			n := 1 + rng.Intn(12)
			p.each(func(e *Engine) {
				e.Repeat(n, func() {
					for _, op := range body {
						op(e, p.regions[e])
					}
				})
			})
			sweeps += n
			p.same(t, fmt.Sprintf("seed %d repeat %d", seed, rep))
		}
		if outer {
			p.each(func(e *Engine) { e.Master().Leave("main") })
		}
		replayed += int(p.shipped.rep.replayed)
		var enc [2][]byte
		for i, e := range []*Engine{p.shipped, p.plain} {
			tr, err := e.Snapshot("a", "e", "t")
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if enc[i], err = perfdmf.EncodeTrial(tr); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		if !bytes.Equal(enc[0], enc[1]) {
			t.Fatalf("seed %d: the trial of the replaying engine differs from the one that ran every sweep", seed)
		}
	}
	t.Logf("%d of %d sweeps replayed", replayed, sweeps)
	if replayed < sweeps/4 {
		t.Errorf("%d of %d sweeps replayed: the differential hardly tests replay", replayed, sweeps)
	}
}

// A sweep that places a page, or whose timers do not close, is never the
// one replay starts from.
func TestRepeatRunsSweepsThatChangeState(t *testing.T) {
	e := newEngine(2)
	r := e.mach.AllocRegion("field", 8*e.cfg.PageBytes)
	e.Repeat(8, func() {
		// Both threads store to the first unplaced page, the master first.
		for p := int64(0); p < r.Bytes; p += e.cfg.PageBytes {
			if r.HomeOf(p) < 0 {
				e.ParallelFor("init", 2, Schedule{}, func(t *Thread, i int) {
					t.Compute(Kernel{Refs: [2]MemRef{{Region: r, Off: p, Len: 1, Stores: 1, FirstTouch: true}}})
				})
				return
			}
		}
	})
	if e.rep.replayed != 0 {
		t.Errorf("%d sweeps replayed while each placed a page", e.rep.replayed)
	}
	e.Repeat(6, func() { e.Master().Enter("open") })
	if e.rep.replayed != 0 {
		t.Errorf("%d sweeps replayed while each left a timer open", e.rep.replayed)
	}
	for i := 0; i < 6; i++ {
		e.Master().Leave("open")
	}
	// The master alone computing moves its clock against thread 1's: each
	// sweep starts from another state.
	e.Repeat(6, func() { e.Master().Compute(Kernel{IntOps: 100}) })
	if e.rep.replayed != 0 {
		t.Errorf("%d sweeps replayed while each moved one thread's clock against the other's", e.rep.replayed)
	}
	// The first sweep evens the clocks out, the second starts from even
	// clocks, the third from the state the second started from.
	e.Repeat(6, func() {
		e.ParallelFor("steady", 2, Schedule{}, func(t *Thread, i int) { t.Compute(Kernel{IntOps: 100}) })
	})
	if e.rep.replayed != 3 {
		t.Errorf("%d of 6 sweeps of a steady body replayed, want 3", e.rep.replayed)
	}
}

// Bodies that break the contract: the second sweep starts from the state the
// first started from but does something else — homes a page, which charges
// nothing, moves the clocks or counters, or charges two events otherwise —
// and every later sweep does what the second did. Repeat must not replay from
// the second sweep. The third is compared with it and replays the rest, but
// for the page: the third starts from another placement, so the fourth does.
func TestRepeatComparesEverything(t *testing.T) {
	type body struct {
		differ   func(e *Engine)
		replayed uint64
	}
	cases := map[string]body{
		"places a page": {func(e *Engine) { e.mach.Region("field").Touch(0, 1, 0) }, 6},
		"moves the clocks": {func(e *Engine) {
			for _, th := range e.threads {
				th.Clock += 5
			}
		}, 7},
		"moves a counter": {func(e *Engine) {
			for _, th := range e.threads {
				th.CS.Inc(counters.FPOps, 1)
			}
		}, 7},
		"charges events otherwise": {nil, 7},
	}
	for name, c := range cases {
		differ := c.differ
		e := newEngine(2)
		e.mach.AllocRegion("field", 4*e.cfg.PageBytes)
		m := e.Master()
		body := func(first bool) {
			e.ParallelFor("solve", 2, Schedule{}, func(t *Thread, i int) { t.Compute(Kernel{IntOps: 100}) })
			if !first && differ != nil {
				differ(e)
			}
			// The same work and counts, but charged to a or b by sweep.
			m.Enter("a")
			if first || differ != nil {
				m.Compute(Kernel{IntOps: 300})
			}
			m.Leave("a")
			m.Enter("b")
			if !first && differ == nil {
				m.Compute(Kernel{IntOps: 300})
			}
			m.Leave("b")
			m.Compute(Kernel{IntOps: 4000}) // catch the workers up: the next sweep starts where this one did
		}
		body(true) // no sweep starts from fresh events or from the first clocks
		calls := 0
		e.Repeat(10, func() {
			calls++
			body(calls == 1)
		})
		if e.rep.replayed != c.replayed {
			t.Errorf("%s: %d of 10 sweeps replayed, want %d", name, e.rep.replayed, c.replayed)
		}
	}
}

func TestRepeatNestedPanics(t *testing.T) {
	e := newEngine(1)
	defer func() {
		if recover() == nil {
			t.Error("a Repeat inside a repeated body did not panic")
		}
	}()
	e.Repeat(2, func() { e.Repeat(2, func() {}) })
}

// Recording a sweep allocates nothing once the engine has recorded one.
func TestRepeatRecordingAllocatesNothing(t *testing.T) {
	e := NewEngine(machine.New(machine.Altix(8, 2)), Options{Threads: 4, CallpathDepth: 3})
	k := placedKernel(e, "field", 0)
	body := func() {
		for _, th := range e.threads {
			th.Enter("sweep")
			th.Compute(k)
			th.Enter("inner")
			th.Compute(k)
			th.Leave("inner")
			th.Leave("sweep")
		}
	}
	e.Master().Enter("main")
	e.Repeat(2, body) // a Repeat of two sweeps records both and replays none
	if n := testing.AllocsPerRun(50, func() { e.Repeat(2, body) }); n != 0 {
		t.Errorf("recording two sweeps allocated %v times", n)
	}
	e.Master().Leave("main")
	if e.rep.replayed != 0 {
		t.Errorf("%d sweeps replayed by Repeats of two", e.rep.replayed)
	}
}
