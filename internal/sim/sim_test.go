package sim

import (
	"crypto/sha256"
	"runtime"
	"testing"

	"perfknow/internal/counters"
	"perfknow/internal/machine"
	"perfknow/internal/perfdmf"
)

func newEngine(threads int) *Engine {
	m := machine.New(machine.Altix(8, 2))
	return NewEngine(m, Options{Threads: threads})
}

func TestEngineConstruction(t *testing.T) {
	e := newEngine(4)
	if e.Threads() != 4 {
		t.Fatalf("Threads = %d", e.Threads())
	}
	if e.Master() != e.Thread(0) {
		t.Fatal("Master should be thread 0")
	}
	// Threads pin round-robin onto CPUs.
	if e.Thread(1).CPU != 1 || e.Thread(3).CPU != 3 {
		t.Fatal("CPU pinning wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero threads should panic")
		}
	}()
	NewEngine(machine.New(machine.Altix(2, 2)), Options{})
}

func TestComputeAdvancesClockAndCounters(t *testing.T) {
	e := newEngine(1)
	th := e.Master()
	th.Compute(Kernel{FPOps: 6000, IntOps: 6000, ILP: 1.0})
	if th.Clock == 0 {
		t.Fatal("Compute did not advance the clock")
	}
	if got := th.CS.Get(counters.InstrCompleted); got != 12000 {
		t.Fatalf("InstrCompleted = %d", got)
	}
	if th.CS.Get(counters.Cycles) != th.Clock {
		t.Fatalf("Cycles counter %d != clock %d", th.CS.Get(counters.Cycles), th.Clock)
	}
	// At ILP=1 on a 6-wide machine, 12000 instructions take >= 2000 cycles.
	if th.Clock < 2000 {
		t.Fatalf("clock %d below issue-bound minimum", th.Clock)
	}
}

func TestComputeZeroKernelIsFree(t *testing.T) {
	e := newEngine(1)
	th := e.Master()
	th.Compute(Kernel{})
	if th.Clock != 0 {
		t.Fatalf("zero kernel advanced clock to %d", th.Clock)
	}
}

func TestComputeStallDecompositionSumsToStallAll(t *testing.T) {
	e := newEngine(2)
	mach := e.Machine()
	r := mach.AllocRegion("data", 32<<20)
	r.Place(0, 32<<20, 7) // all remote from CPU 0
	th := e.Master()
	th.Compute(Kernel{
		FPOps: 100000, Branches: 10000, MispredictRate: 0.05,
		FPStallPerOp: 0.4, RegDepFrac: 0.1,
		Refs: [2]MemRef{{Region: r, Off: 0, Len: 32 << 20, Loads: 500000, Stores: 100000, Reuse: 2}},
	})
	var sum uint64
	for _, id := range counters.StallComponents() {
		sum += th.CS.Get(id)
	}
	if got := th.CS.Get(counters.StallAll); got != sum {
		t.Fatalf("StallAll %d != sum of components %d", got, sum)
	}
	if th.CS.Get(counters.RemoteMem) == 0 {
		t.Fatal("expected remote memory accesses")
	}
	if th.CS.Get(counters.LocalMem) != 0 {
		t.Fatal("expected zero local accesses for fully remote data")
	}
}

func TestComputeFirstTouch(t *testing.T) {
	e := newEngine(4)
	mach := e.Machine()
	r := mach.AllocRegion("ft", 8*mach.Config().PageBytes)
	// Thread 2 (CPU 2, node 1) first-touches the first half.
	e.Thread(2).Compute(Kernel{Refs: [2]MemRef{{
		Region: r, Off: 0, Len: 4 * mach.Config().PageBytes, Loads: 100, FirstTouch: true,
	}}})
	if home := r.HomeOf(0); home != 1 {
		t.Fatalf("first-touched page home = %d, want node 1", home)
	}
	if home := r.HomeOf(5 * mach.Config().PageBytes); home != -1 {
		t.Fatalf("untouched page home = %d, want -1", home)
	}
}

// Sixteen threads of a static loop all first-touch the whole region, and
// iteration 0 — thread 0's — does not. The lowest thread id touching a page
// in a construct homes it: thread 1, on node 0. When the threads ran on
// goroutines the last page came out on node 1 about once in 600 runs.
func TestOverlappingFirstTouchIsReproducible(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var want [sha256.Size]byte
	for run := 0; run < 200; run++ {
		e := newEngine(16)
		r := e.Machine().AllocRegion("shared", 64*e.Machine().Config().PageBytes)
		e.ParallelFor("init", 16, Schedule{Kind: StaticSched}, func(th *Thread, i int) {
			if i == 0 {
				return
			}
			th.Compute(Kernel{Refs: [2]MemRef{{Region: r, Off: 0, Len: r.Bytes, Stores: 1 << 10, FirstTouch: true}}})
		})
		if home := r.HomeOf(r.Bytes - 1); home != 0 {
			t.Fatalf("run %d: last page homed on node %d, want 0", run, home)
		}
		tr, err := e.Snapshot("app", "exp", "overlap")
		if err != nil {
			t.Fatal(err)
		}
		enc, err := perfdmf.EncodeTrial(tr)
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(enc); run == 0 {
			want = sum
		} else if sum != want {
			t.Fatalf("run %d: encoded trial differs from run 0", run)
		}
	}
}

func TestRemoteSlowerThanLocal(t *testing.T) {
	e := newEngine(16)
	mach := e.Machine()
	size := int64(64 << 20)
	local := mach.AllocRegion("local", size)
	local.Place(0, size, 0)
	remote := mach.AllocRegion("remote", size)
	remote.Place(0, size, 7)

	k := func(r *machine.Region) Kernel {
		return Kernel{FPOps: 1 << 20, Refs: [2]MemRef{{Region: r, Off: 0, Len: size, Loads: 1 << 21, Reuse: 2}}}
	}
	t0 := e.Thread(0) // node 0
	t0.Compute(k(local))
	localCycles := t0.Clock
	t1 := e.Thread(1) // also node 0
	t1.Compute(k(remote))
	if t1.Clock <= localCycles {
		t.Fatalf("remote compute (%d) not slower than local (%d)", t1.Clock, localCycles)
	}
}

func TestParallelForStaticVsDynamicImbalance(t *testing.T) {
	// Triangular work: iteration i costs (n-i) units — static even
	// scheduling gives thread 0 far more work than the last thread;
	// dynamic,1 balances.
	n := 64
	work := func(t *Thread, i int) {
		t.Compute(Kernel{FPOps: uint64(1000 * (n - i)), ILP: 1})
	}

	run := func(sched Schedule) (makespan uint64, barrierSpread float64) {
		e := newEngine(8)
		e.Master().Enter("main")
		e.ParallelFor("loop", n, sched, work)
		e.Master().Leave("main")
		var waits []float64
		for i := 0; i < 8; i++ {
			waits = append(waits, float64(e.Thread(i).CS.Get(counters.OMPBarrierCycles)))
		}
		return e.Master().Clock, perfdmf.StdDev(waits)
	}

	staticSpan, staticSpread := run(Schedule{Kind: StaticSched})
	dynSpan, dynSpread := run(Schedule{Kind: DynamicSched, Chunk: 1})
	if dynSpan >= staticSpan {
		t.Fatalf("dynamic,1 (%d) should beat static (%d) on triangular work", dynSpan, staticSpan)
	}
	if dynSpread >= staticSpread {
		t.Fatalf("dynamic wait spread %g should be below static %g", dynSpread, staticSpread)
	}
}

func TestStaticChunkRoundRobin(t *testing.T) {
	e := newEngine(4)
	counts := make([]int, 4)
	e.ParallelRegion("r", func(tm *Team) {
		tm.For(16, Schedule{Kind: StaticSched, Chunk: 2}, func(t *Thread, i int) {
			counts[t.ID]++
		})
	})
	for id, c := range counts {
		if c != 4 {
			t.Fatalf("thread %d ran %d iterations, want 4", id, c)
		}
	}
}

func TestGuidedShrinksChunks(t *testing.T) {
	e := newEngine(4)
	var sizes []int
	cur := -1
	last := -1
	e.ParallelRegion("r", func(tm *Team) {
		tm.For(1000, Schedule{Kind: GuidedSched}, func(t *Thread, i int) {
			if t.ID != cur || i != last+1 {
				sizes = append(sizes, 1)
				cur = t.ID
			} else {
				sizes[len(sizes)-1]++
			}
			last = i
		})
	})
	if len(sizes) < 3 {
		t.Fatalf("guided produced only %d chunks", len(sizes))
	}
	if sizes[0] < sizes[len(sizes)-1] {
		t.Fatalf("guided chunks should shrink: first %d, last %d", sizes[0], sizes[len(sizes)-1])
	}
}

func TestDynamicDispatchCounted(t *testing.T) {
	e := newEngine(2)
	e.ParallelRegion("r", func(tm *Team) {
		tm.For(10, Schedule{Kind: DynamicSched, Chunk: 1}, func(t *Thread, i int) {
			t.Compute(Kernel{IntOps: 100})
		})
	})
	total := uint64(0)
	for i := 0; i < 2; i++ {
		total += e.Thread(i).CS.Get(counters.OMPSchedDispatch)
	}
	if total != 10 {
		t.Fatalf("dispatches = %d, want 10", total)
	}
}

func TestBarrierEqualizesClocks(t *testing.T) {
	e := newEngine(4)
	e.ParallelRegion("r", func(tm *Team) {
		tm.Each(func(t *Thread) {
			t.Compute(Kernel{FPOps: uint64(1000 * (t.ID + 1))})
		})
		tm.Barrier()
		c := tm.Threads()[0].Clock
		for _, th := range tm.Threads() {
			if th.Clock != c {
				t.Fatalf("clocks diverge after barrier: %d vs %d", th.Clock, c)
			}
		}
	})
	// Thread 0 did the least work, so it waited the longest.
	if e.Thread(0).CS.Get(counters.OMPBarrierCycles) <= e.Thread(3).CS.Get(counters.OMPBarrierCycles) {
		t.Fatal("fastest thread should accumulate the most barrier wait")
	}
}

func TestParallelRegionProfilesAllThreads(t *testing.T) {
	e := newEngine(4)
	e.Master().Enter("main")
	e.ParallelRegion("work", func(tm *Team) {
		tm.Each(func(t *Thread) { t.Compute(Kernel{FPOps: 1000}) })
	})
	e.Master().Leave("main")
	tr, err := e.Snapshot("app", "exp", "t")
	if err != nil {
		t.Fatal(err)
	}
	work := tr.Event("work")
	if work == nil {
		t.Fatal("work event missing")
	}
	for th := 0; th < 4; th++ {
		if work.Inclusive[perfdmf.TimeMetric][th] <= 0 {
			t.Fatalf("thread %d has no time in parallel region", th)
		}
	}
	// main exists only on thread 0.
	main := tr.Event("main")
	if main.Calls[0] != 1 || main.Calls[1] != 0 {
		t.Fatalf("main calls = %v", main.Calls)
	}
	if tr.Metadata["threads"] != "4" {
		t.Fatalf("metadata threads = %q", tr.Metadata["threads"])
	}
}

func TestMasterOnlySerializes(t *testing.T) {
	// A master-only copy loop leaves workers idle: master clock advances,
	// workers wait at the next barrier — the exchange_var defect in §III-B.
	e := newEngine(4)
	e.ParallelRegion("exchange", func(tm *Team) {
		tm.MasterOnly(func(t *Thread) {
			t.Compute(Kernel{IntOps: 1 << 20})
		})
	})
	if w := e.Thread(3).CS.Get(counters.OMPBarrierCycles); w == 0 {
		t.Fatal("workers should wait for master-only work at the join barrier")
	}
}

func TestCriticalSerializesThreads(t *testing.T) {
	e := newEngine(4)
	var order []int
	e.ParallelRegion("r", func(tm *Team) {
		// Stagger arrival: thread 3 arrives first, thread 0 last.
		tm.Each(func(t *Thread) {
			t.Compute(Kernel{IntOps: uint64(1000 * (4 - t.ID))})
		})
		tm.Critical(func(t *Thread) {
			order = append(order, t.ID)
			t.Compute(Kernel{IntOps: 5000})
		})
	})
	// Arrival order is descending ID (thread 3 did the least pre-work).
	if order[0] != 3 || order[3] != 0 {
		t.Fatalf("critical order: %v", order)
	}
	// Later entrants waited: the last thread shows critical wait cycles.
	if e.Thread(0).CS.Get(counters.OMPCriticalCycles) == 0 {
		t.Fatal("no critical wait recorded for the last entrant")
	}
	// First entrant never waited on the critical itself.
	if e.Thread(3).CS.Get(counters.OMPCriticalCycles) != 0 {
		t.Fatal("first entrant should not wait")
	}
	// Occupancy is exclusive: each thread's entry is at or after the
	// previous occupant's exit, so total elapsed covers 4 serialized bodies.
	if e.Master().Clock < 4*800 {
		t.Fatal("critical bodies overlapped")
	}
}

func TestCopyCostsScaleWithSize(t *testing.T) {
	e := newEngine(1)
	mach := e.Machine()
	src := mach.AllocRegion("src", 16<<20)
	dst := mach.AllocRegion("dst", 16<<20)
	src.Place(0, 16<<20, 0)
	th := e.Master()
	th.Copy(dst, src, 0, 0, 1<<20)
	small := th.Clock
	th.Copy(dst, src, 1<<20, 1<<20, 8<<20)
	large := th.Clock - small
	if large <= small*4 {
		t.Fatalf("8MB copy (%d) should cost much more than 1MB (%d)", large, small)
	}
	if th.CS.Get(counters.Stores) == 0 {
		t.Fatal("copy recorded no stores")
	}
	// Destination pages were first-touched by the copier.
	if dst.HomeOf(0) != 0 {
		t.Fatal("copy did not first-touch destination")
	}
	th.Copy(nil, nil, 0, 0, 0) // no-op, must not panic
}

func TestSPMDAndExchange(t *testing.T) {
	e := newEngine(4)
	e.SPMD(func(r *Thread, rank int) {
		r.Enter("app")
		r.Compute(Kernel{FPOps: uint64(10000 * (rank + 1))})
	})
	// Ring exchange.
	var msgs []Message
	for r := 0; r < 4; r++ {
		msgs = append(msgs, Message{From: r, To: (r + 1) % 4, Bytes: 1 << 16})
	}
	e.Exchange(msgs)
	e.SPMD(func(r *Thread, rank int) { r.Leave("app") })

	// Every rank sent one message.
	for r := 0; r < 4; r++ {
		if got := e.Thread(r).CS.Get(counters.MPIMessages); got != 1 {
			t.Fatalf("rank %d messages = %d", r, got)
		}
	}
	// Rank 0 receives from rank 3 (the slowest): it must have waited.
	if e.Thread(0).CS.Get(counters.MPIWaitCycles) == 0 {
		t.Fatal("rank 0 should wait on slow sender")
	}
	tr, err := e.Snapshot("a", "e", "t")
	if err != nil {
		t.Fatal(err)
	}
	if !tr.HasMetric("MPI_WAIT_CYCLES") {
		t.Fatalf("metrics: %v", tr.Metrics)
	}
}

func TestMPIBarrierAndAllReduce(t *testing.T) {
	e := newEngine(4)
	e.SPMD(func(r *Thread, rank int) {
		r.Compute(Kernel{IntOps: uint64(1000 * (rank + 1))})
	})
	e.MPIBarrier()
	c := e.Thread(0).Clock
	for i := 1; i < 4; i++ {
		if e.Thread(i).Clock != c {
			t.Fatal("MPIBarrier did not equalize clocks")
		}
	}
	before := e.Thread(0).Clock
	e.AllReduce(8)
	if e.Thread(0).Clock <= before {
		t.Fatal("AllReduce cost nothing")
	}
}

func TestExchangeValidation(t *testing.T) {
	e := newEngine(2)
	for name, msgs := range map[string][]Message{
		"bad from":  {{From: -1, To: 0, Bytes: 1}},
		"bad to":    {{From: 0, To: 9, Bytes: 1}},
		"neg bytes": {{From: 0, To: 1, Bytes: -5}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			e.Exchange(msgs)
		}()
	}
	e.Exchange(nil) // no-op
}

func TestScheduleParseAndString(t *testing.T) {
	cases := map[string]Schedule{
		"static":        {Kind: StaticSched},
		"static,8":      {Kind: StaticSched, Chunk: 8},
		"dynamic,1":     {Kind: DynamicSched, Chunk: 1},
		"guided,4":      {Kind: GuidedSched, Chunk: 4},
		" dynamic , 2 ": {Kind: DynamicSched, Chunk: 2},
	}
	for in, want := range cases {
		got, err := ParseSchedule(in)
		if err != nil {
			t.Fatalf("ParseSchedule(%q): %v", in, err)
		}
		if got != want {
			t.Fatalf("ParseSchedule(%q) = %+v, want %+v", in, got, want)
		}
	}
	for _, bad := range []string{"", "fast", "dynamic,0", "static,x"} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Fatalf("ParseSchedule(%q) should fail", bad)
		}
	}
	if s := (Schedule{Kind: DynamicSched, Chunk: 1}).String(); s != "dynamic,1" {
		t.Fatalf("String = %q", s)
	}
	if s := (Schedule{Kind: StaticSched}).String(); s != "static" {
		t.Fatalf("String = %q", s)
	}
}

func TestForCoversAllIterationsExactlyOnce(t *testing.T) {
	for _, sched := range []Schedule{
		{Kind: StaticSched}, {Kind: StaticSched, Chunk: 3},
		{Kind: DynamicSched, Chunk: 1}, {Kind: DynamicSched, Chunk: 7},
		{Kind: GuidedSched},
	} {
		e := newEngine(5)
		seen := make([]int, 123)
		e.ParallelRegion("r", func(tm *Team) {
			tm.For(123, sched, func(t *Thread, i int) {
				seen[i]++
				t.Compute(Kernel{IntOps: uint64(10 * (i%7 + 1))})
			})
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("sched %v: iteration %d ran %d times", sched, i, c)
			}
		}
	}
}
