package dmfserver

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// errSaturated is acquire's answer when no analysis slot frees up within the
// admission window; gated sheds the request with 429 + Retry-After.
var errSaturated = errors.New("no analysis slot free")

// admission is the daemon's -j bound: a counting semaphore over the
// requests that run analysis or diagnosis. An admitted request does its work
// on its own goroutine and starts no other, so the slot count is also the
// bound on goroutines doing analysis.
type admission struct {
	sem     chan struct{}
	waiting atomic.Int64 // callers blocked in acquire: the admission queue depth
}

func newAdmission(slots int) *admission {
	return &admission{sem: make(chan struct{}, slots)}
}

// acquire takes a slot, waiting at most wait for one to free up: nil on
// success, errSaturated when the window expires (at once when wait <= 0),
// ctx.Err() when the caller gives up first. Every nil return is paired
// with exactly one release.
func (a *admission) acquire(ctx context.Context, wait time.Duration) error {
	select {
	case a.sem <- struct{}{}:
		return nil
	default:
	}
	if wait <= 0 {
		return errSaturated
	}
	a.waiting.Add(1)
	defer a.waiting.Add(-1)
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case a.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return errSaturated
	}
}

// release returns a slot. Releasing one that was never taken is a bug in
// the caller and panics.
func (a *admission) release() {
	select {
	case <-a.sem:
	default:
		panic("dmfserver: admission release without acquire")
	}
}
