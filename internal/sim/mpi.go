package sim

import (
	"fmt"
	"math"

	"perfknow/internal/counters"
)

// This file models the MPI runtime. Ranks are the engine's logical threads;
// point-to-point traffic uses the asynchronous Isend/Irecv + Waitall pattern
// GenIDLEST's ghost-cell updates employ (§III-B), with a latency/bandwidth
// (alpha/beta) cost model over the NUMAlink and clock reconciliation at the
// wait.

// Message is one point-to-point transfer.
type Message struct {
	From, To int
	Bytes    int64
}

// SPMD runs body once per rank, in rank order. Ranks advance independently
// (each carries its own clock, counters and profile); use
// Exchange/MPIBarrier/AllReduce to couple their clocks.
func (e *Engine) SPMD(body func(r *Thread, rank int)) {
	for i, t := range e.threads {
		body(t, i)
	}
}

// Exchange models an asynchronous neighbor exchange: every rank posts its
// sends and receives (paying injection cost per message), then waits for all
// of its transfers to complete. A rank's post-wait clock is the maximum of
// its own injection-complete time and, for every message it touches, the
// peer's injection-complete time plus the wire cost of that message.
func (e *Engine) Exchange(msgs []Message) {
	if len(msgs) == 0 {
		return
	}
	ovh := e.ovh
	// Phase 1: injection. Each rank pays alpha per message it sends plus
	// beta per byte (the overlapped Isend path charges the occupancy, not
	// the full round trip).
	inject := make([]uint64, len(e.threads))
	for _, m := range msgs {
		e.checkRank(m.From)
		e.checkRank(m.To)
		if m.Bytes < 0 {
			panic(fmt.Sprintf("sim: negative message size %d", m.Bytes))
		}
		cost := ovh.MPILatency + uint64(float64(m.Bytes)*ovh.MPIByteCyc)
		s := e.threads[m.From]
		s.Advance(cost, nil)
		s.CS.Inc(counters.MPIMessages, 1)
		s.CS.Inc(counters.MPIBytes, uint64(m.Bytes))
		inject[m.From] = s.Clock
	}
	for i, t := range e.threads {
		if inject[i] == 0 {
			inject[i] = t.Clock
		}
	}
	// Phase 2: waitall. Arrival time of a message is the sender's
	// injection-complete clock plus wire time.
	ready := make([]uint64, len(e.threads))
	for i, t := range e.threads {
		ready[i] = t.Clock
	}
	for _, m := range msgs {
		wire := ovh.MPILatency/2 + uint64(float64(m.Bytes)*ovh.MPIByteCyc)
		arrival := inject[m.From] + wire
		if arrival > ready[m.To] {
			ready[m.To] = arrival
		}
	}
	for i, t := range e.threads {
		if ready[i] > t.Clock {
			wait := ready[i] - t.Clock
			t.Advance(wait, nil)
			t.CS.Inc(counters.MPIWaitCycles, wait)
		}
	}
}

// MPIBarrier synchronizes all ranks (dissemination barrier cost model:
// log2(p) message latencies past the slowest rank).
func (e *Engine) MPIBarrier() {
	max := uint64(0)
	for _, t := range e.threads {
		if t.Clock > max {
			max = t.Clock
		}
	}
	max += uint64(math.Ceil(math.Log2(float64(len(e.threads)+1)))) * e.ovh.MPILatency / 2
	for _, t := range e.threads {
		wait := max - t.Clock
		t.Advance(wait, nil)
		t.CS.Inc(counters.MPIWaitCycles, wait)
	}
}

// AllReduce models a butterfly allreduce of n bytes per rank: a barrier's
// synchronization plus log2(p) combine steps of wire traffic.
func (e *Engine) AllReduce(bytes int64) {
	p := len(e.threads)
	steps := uint64(math.Ceil(math.Log2(float64(p + 1))))
	cost := steps * (e.ovh.MPILatency + uint64(float64(bytes)*e.ovh.MPIByteCyc))
	max := uint64(0)
	for _, t := range e.threads {
		if t.Clock > max {
			max = t.Clock
		}
	}
	max += cost
	for _, t := range e.threads {
		wait := max - t.Clock
		t.Advance(wait, nil)
		t.CS.Inc(counters.MPIWaitCycles, wait)
		t.CS.Inc(counters.MPIMessages, steps)
		t.CS.Inc(counters.MPIBytes, uint64(bytes)*steps)
	}
}

func (e *Engine) checkRank(r int) {
	if r < 0 || r >= len(e.threads) {
		panic(fmt.Sprintf("sim: rank %d out of range [0,%d)", r, len(e.threads)))
	}
}
