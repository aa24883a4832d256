package sim

import (
	"fmt"
	"strconv"
	"strings"

	"perfknow/internal/counters"
)

// ScheduleKind enumerates the OpenMP loop scheduling policies.
type ScheduleKind int

const (
	StaticSched ScheduleKind = iota
	DynamicSched
	GuidedSched
)

// Schedule is an OpenMP schedule clause. Chunk 0 selects the default chunk
// for the kind: n/p blocks for static, 1 for dynamic and guided.
type Schedule struct {
	Kind  ScheduleKind
	Chunk int
}

// String renders the schedule in clause syntax ("dynamic,1").
func (s Schedule) String() string {
	kind := map[ScheduleKind]string{StaticSched: "static", DynamicSched: "dynamic", GuidedSched: "guided"}[s.Kind]
	if s.Chunk > 0 {
		return fmt.Sprintf("%s,%d", kind, s.Chunk)
	}
	return kind
}

// ParseSchedule parses clause syntax: "static", "static,8", "dynamic,1",
// "guided,4".
func ParseSchedule(s string) (Schedule, error) {
	name, chunkStr, hasChunk := strings.Cut(strings.TrimSpace(s), ",")
	var out Schedule
	switch strings.TrimSpace(name) {
	case "static":
		out.Kind = StaticSched
	case "dynamic":
		out.Kind = DynamicSched
	case "guided":
		out.Kind = GuidedSched
	default:
		return out, fmt.Errorf("sim: unknown schedule kind %q", name)
	}
	if hasChunk {
		c, err := strconv.Atoi(strings.TrimSpace(chunkStr))
		if err != nil || c <= 0 {
			return out, fmt.Errorf("sim: bad schedule chunk %q", chunkStr)
		}
		out.Chunk = c
	}
	return out, nil
}

// Team is the set of threads inside a parallel region. Its methods model
// OpenMP worksharing constructs with exact virtual-time semantics.
type Team struct {
	e       *Engine
	threads []*Thread
}

// Threads returns the team members.
func (tm *Team) Threads() []*Thread { return tm.threads }

// TeamOf builds a team from an explicit subset of the engine's threads —
// the intra-process thread group of a hybrid MPI+OpenMP program. Barriers
// and worksharing on the returned team involve only those threads.
func (e *Engine) TeamOf(ids ...int) *Team {
	if len(ids) == 0 {
		panic("sim: TeamOf needs at least one thread")
	}
	threads := make([]*Thread, len(ids))
	for i, id := range ids {
		threads[i] = e.Thread(id)
	}
	return &Team{e: e, threads: threads}
}

// Size returns the team size.
func (tm *Team) Size() int { return len(tm.threads) }

// ParallelRegion forks the full team, names and instruments the region on
// every thread, runs body, then joins with an implicit barrier. The fork
// propagates the master's clock to all workers, and the join advances the
// master past the latest worker — the fork/join overhead model of the
// parallel cost model in the OpenUH loop nest optimizer.
func (e *Engine) ParallelRegion(region string, body func(tm *Team)) {
	master := e.Master()
	fork := e.ovh.ForkJoin / 2
	start := master.Clock + fork
	tm := &Team{e: e, threads: e.threads}
	for _, t := range e.threads {
		if t.Clock < start {
			t.Advance(start-t.Clock, nil) // idle catch-up counts as elapsed cycles
		}
		t.CS.Inc(counters.OMPForkJoinCycles, fork)
		t.Enter(region)
	}
	body(tm)
	tm.Barrier()
	for _, t := range e.threads {
		t.Leave(region)
	}
	join := e.ovh.ForkJoin - fork
	master.Advance(join, nil)
	master.CS.Inc(counters.OMPForkJoinCycles, join)
}

// ParallelFor is the common single-loop region: fork, share the loop, join.
func (e *Engine) ParallelFor(region string, n int, sched Schedule, iter func(t *Thread, i int)) {
	e.ParallelRegion(region, func(tm *Team) {
		tm.For(n, sched, iter)
	})
}

// Barrier synchronizes the team: every thread waits until the slowest
// arrives. Wait cycles are charged to the waiting thread's innermost open
// region (matching how profile time shows up in the region containing the
// barrier) and counted under OMP_BARRIER_CYCLES.
func (tm *Team) Barrier() {
	max := uint64(0)
	for _, t := range tm.threads {
		if t.Clock > max {
			max = t.Clock
		}
	}
	max += tm.e.ovh.BarrierBase
	for _, t := range tm.threads {
		// The wait is counted twice on purpose: Advance adds it to Cycles,
		// the thread's total elapsed time, and OMP_BARRIER_CYCLES is the
		// part of that total spent waiting here.
		wait := max - t.Clock
		t.Advance(wait, nil)
		t.CS.Inc(counters.OMPBarrierCycles, wait)
	}
}

// For workshares iterations [0, n) across the team under sched. Static
// scheduling runs each thread's chunk sequence in turn, thread 0 first;
// dynamic and guided scheduling dispatch each chunk to the thread with the
// smallest clock — the virtual-time equivalent of "the next free thread
// grabs the next chunk". Where iterations of different threads first-touch
// the same page, the lowest thread id homes it. No implicit
// barrier is taken; call Barrier (or rely on ParallelRegion's join) to
// close the construct, which lets callers model nowait loops too.
func (tm *Team) For(n int, sched Schedule, iter func(t *Thread, i int)) {
	if n <= 0 {
		return
	}
	p := len(tm.threads)
	switch sched.Kind {
	case StaticSched:
		chunk := sched.Chunk
		if chunk <= 0 {
			chunk = (n + p - 1) / p
		}
		// Static assignment is fixed up front: chunk c belongs to thread
		// c mod p.
		for k, t := range tm.threads {
			for base := k * chunk; base < n; base += p * chunk {
				end := base + chunk
				if end > n {
					end = n
				}
				for i := base; i < end; i++ {
					iter(t, i)
				}
			}
		}
	case DynamicSched, GuidedSched:
		chunk := sched.Chunk
		if chunk <= 0 {
			chunk = 1
		}
		remaining := n
		next := 0
		for remaining > 0 {
			size := chunk
			if sched.Kind == GuidedSched {
				size = remaining / (2 * p)
				if size < chunk {
					size = chunk
				}
			}
			if size > remaining {
				size = remaining
			}
			t := tm.minClockThread()
			t.Advance(tm.e.ovh.Dispatch, nil)
			t.CS.Inc(counters.OMPSchedDispatch, 1)
			for i := next; i < next+size; i++ {
				iter(t, i)
			}
			next += size
			remaining -= size
		}
	default:
		panic(fmt.Sprintf("sim: unknown schedule kind %d", sched.Kind))
	}
}

// Critical runs body once per thread, serialized in arrival (clock) order —
// the OpenMP critical construct. A thread may enter only after the previous
// occupant leaves; the wait is charged to OMP_CRITICAL_CYCLES and to the
// enclosing region's time, which is how lock contention surfaces in
// profiles (one of the overhead sources the paper's future work targets).
func (tm *Team) Critical(body func(t *Thread)) {
	order := make([]*Thread, len(tm.threads))
	copy(order, tm.threads)
	// Arrival order: ascending clock, ties by ID for determinism.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && (order[j].Clock < order[j-1].Clock ||
			(order[j].Clock == order[j-1].Clock && order[j].ID < order[j-1].ID)); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	release := uint64(0)
	for _, t := range order {
		if t.Clock < release {
			wait := release - t.Clock
			t.Advance(wait, nil)
			t.CS.Inc(counters.OMPCriticalCycles, wait)
		}
		body(t)
		release = t.Clock
	}
}

// Each runs f once on every thread (replicated execution), in id order.
func (tm *Team) Each(f func(t *Thread)) {
	for _, t := range tm.threads {
		f(t)
	}
}

// MasterOnly runs f on thread 0 only; other threads do not wait (no implied
// barrier, as in OpenMP's master construct).
func (tm *Team) MasterOnly(f func(t *Thread)) {
	f(tm.threads[0])
}

func (tm *Team) minClockThread() *Thread {
	best := tm.threads[0]
	for _, t := range tm.threads[1:] {
		if t.Clock < best.Clock {
			best = t
		}
	}
	return best
}
