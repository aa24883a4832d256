package cluster

import (
	"context"
	"math/rand/v2"
	"time"

	"perfknow/internal/dmfclient"
	"perfknow/internal/vfs"
)

// env is everything the cluster does that is not a pure step: reading the
// clock, waiting, drawing randomness, running per-peer calls side by side,
// dialing a peer and touching the hints filesystem. Production fills it with
// the real thing (productionEnv); a same-package test swaps in a virtual
// clock, a seeded source and a fan-out that runs its calls one at a time in
// a seed-chosen order, which makes a whole cluster history replayable.
type env struct {
	now   func() time.Time
	after func(time.Duration) <-chan time.Time
	// rand is the agent's own source (jitter); the agent serializes draws.
	rand *rand.Rand
	// fanout calls call(ctx, i) for every i in [0, n) and hands each
	// finished i to next, in completion order. next returns false to stop
	// early: the calls still running see ctx cancelled and their results
	// are dropped. A nil next waits for every call. call writes its result
	// to a slot the caller owns; next(i), and the caller once fanout has
	// returned, may read the slots of the calls that finished.
	fanout func(ctx context.Context, n int, call func(ctx context.Context, i int), next func(i int) bool)
	dial   func(peer string) (AgentPeer, error)
	fs     vfs.FS
}

// productionEnv is today's behaviour: the wall clock and real timers, a
// randomly seeded source, one goroutine per peer, dmfclient connections and
// the operating system's filesystem.
func productionEnv() env {
	return env{
		now:    time.Now,
		after:  time.After,
		rand:   rand.New(rand.NewPCG(rand.Uint64(), rand.Uint64())),
		fanout: goFanout,
		dial:   func(peer string) (AgentPeer, error) { return dmfclient.New(peer) },
		fs:     vfs.OS{},
	}
}

// goFanout is the production fan-out: one goroutine per call. It is the
// only place the package starts per-peer goroutines.
func goFanout(ctx context.Context, n int, call func(ctx context.Context, i int), next func(i int) bool) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := make(chan int, n) // buffered: a call finishing after next stopped never blocks
	for i := 0; i < n; i++ {
		go func() {
			call(ctx, i)
			done <- i
		}()
	}
	for k := 0; k < n; k++ {
		if i := <-done; next != nil && !next(i) {
			return
		}
	}
}
