// Package parallel is the repo's worker-pool / fan-out substrate: a small
// set of primitives for running N independent work items on a bounded set
// of goroutines, with context cancellation and deterministic error
// collection.
//
// Design rules, shared by every caller in this repository:
//
//   - One grain: an item is something whole and independent — a trial of a
//     batch, an experiment, an admitted request. A simulation, a fact
//     builder or an analysis operation runs on the goroutine that called
//     it; their per-event and per-thread loops are too short to pay for a
//     hand-off.
//   - Bounded: never more goroutines than the worker count, which defaults
//     to GOMAXPROCS and is capped by the item count.
//   - Deterministic degradation: a worker count of 1 (or a single item)
//     runs the loop inline on the calling goroutine, in index order — the
//     exact sequential code path, bit for bit.
//   - Deterministic errors: when several items fail, the reported error is
//     always the one with the lowest index, regardless of goroutine
//     scheduling. Workers claim indices in ascending order from a shared
//     atomic counter and record at most one error each; the merge picks
//     the minimum index.
//   - Share nothing, then merge: callbacks receive only the item index and
//     must write results into per-index slots (as Map does). Panics in
//     callbacks are captured and re-raised on the calling goroutine so a
//     crashing worker cannot deadlock the pool.
package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"perfknow/internal/obs"
)

// Pool telemetry. Counters are coarse-grained by design: one update per
// fan-out call and one per worker goroutine — never per item — so
// instrumentation adds nothing to the index-claiming hot path that
// BenchmarkParallelSpeedup measures.
var (
	fanoutsTotal  atomic.Int64 // ForEach invocations
	workersTotal  atomic.Int64 // worker goroutines ever started
	workersActive atomic.Int64 // worker goroutines currently running
)

// RegisterMetrics exposes the pool's utilization through reg:
// `parallel_fanouts_total`, `parallel_workers_total` (both monotonic) and
// `parallel_workers_active` (instantaneous), all read at snapshot time.
func RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("parallel_fanouts_total", func() float64 { return float64(fanoutsTotal.Load()) })
	reg.GaugeFunc("parallel_workers_total", func() float64 { return float64(workersTotal.Load()) })
	reg.GaugeFunc("parallel_workers_active", func() float64 { return float64(workersActive.Load()) })
}

// workerSpan brackets one worker goroutine's lifetime (inline loops count
// as one worker: the caller's goroutine is doing the work).
func workerSpan() func() {
	workersTotal.Add(1)
	workersActive.Add(1)
	return func() { workersActive.Add(-1) }
}

// defaultWorkers holds the process-wide default worker count. Zero means
// "use GOMAXPROCS at call time". It is set by the CLIs' -j flag.
var defaultWorkers atomic.Int64

// SetDefaultWorkers sets the process-wide default worker count used when a
// call site passes workers <= 0. n <= 0 resets to GOMAXPROCS. Safe for
// concurrent use.
func SetDefaultWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// DefaultWorkers returns the current process-wide default worker count:
// the value of the last SetDefaultWorkers call, or GOMAXPROCS.
func DefaultWorkers() int {
	if n := defaultWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// Workers resolves a per-call worker request: n > 0 is honoured as-is,
// anything else falls back to DefaultWorkers.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return DefaultWorkers()
}

// capped bounds the worker count by the item count.
func capped(workers, n int) int {
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// panicValue carries a captured worker panic to the calling goroutine.
type panicValue struct{ v any }

// ForEach runs fn(i) for every i in [0, n) on at most `workers` goroutines
// and returns the first error by index order. After any error (or context
// cancellation) workers stop claiming new indices; in-flight calls finish.
// The returned error is deterministic: among all recorded failures it is
// the one with the lowest index, independent of scheduling. If ctx is
// cancelled before all items are claimed and no item failed, ctx.Err() is
// returned. With one worker or one item the loop runs inline and returns
// on the first error, exactly like the sequential code it replaces.
func ForEach(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	fanoutsTotal.Add(1)
	w := capped(workers, n)
	if w == 1 {
		defer workerSpan()()
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	type indexedErr struct {
		idx int
		err error
	}
	var (
		next    int64 = -1
		wg      sync.WaitGroup
		mu      sync.Mutex
		firstE  *indexedErr
		pval    *panicValue
		stopped atomic.Bool
	)
	record := func(i int, err error) {
		mu.Lock()
		if firstE == nil || i < firstE.idx {
			firstE = &indexedErr{i, err}
		}
		mu.Unlock()
		stopped.Store(true)
	}
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			defer workerSpan()()
			for {
				if stopped.Load() || ctx.Err() != nil {
					return
				}
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				err := func() (err error) {
					defer func() {
						if r := recover(); r != nil {
							mu.Lock()
							if pval == nil {
								pval = &panicValue{r}
							}
							mu.Unlock()
							stopped.Store(true)
						}
					}()
					return fn(i)
				}()
				if err != nil {
					record(i, err)
				}
			}
		}()
	}
	wg.Wait()
	if pval != nil {
		panic(pval.v)
	}
	if firstE != nil {
		return firstE.err
	}
	// Report cancellation only when it actually skipped work; if every
	// index was claimed (and therefore ran to completion) the call did
	// everything it was asked to, matching the sequential path which only
	// checks the context before each item.
	if int(atomic.LoadInt64(&next)) < n-1 {
		return ctx.Err()
	}
	return nil
}

// Limiter is a counting semaphore bounding concurrent work admitted from
// outside the pool primitives — e.g. a server capping how many requests may
// run analysis at once. It complements ForEach (which bounds fan-out
// within one call) by bounding concurrency across independent callers.
type Limiter struct {
	sem     chan struct{}
	waiting atomic.Int64
}

// NewLimiter returns a limiter admitting at most n concurrent holders.
// n <= 0 falls back to DefaultWorkers, so a server's -j flag (routed
// through SetDefaultWorkers) bounds requests in flight the way a CLI's -j
// bounds experiments or trials in flight.
func NewLimiter(n int) *Limiter {
	if n <= 0 {
		n = DefaultWorkers()
	}
	return &Limiter{sem: make(chan struct{}, n)}
}

// Cap returns the maximum number of concurrent holders.
func (l *Limiter) Cap() int { return cap(l.sem) }

// Acquire blocks until a slot is free or ctx is done, returning ctx.Err()
// in the latter case. Every successful Acquire must be paired with exactly
// one Release.
func (l *Limiter) Acquire(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	l.waiting.Add(1)
	defer l.waiting.Add(-1)
	select {
	case l.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ErrSaturated is returned by AcquireTimeout when no slot frees up within
// the admission window. Callers (e.g. a server) use it to distinguish
// "shed this work" from caller cancellation.
var ErrSaturated = errors.New("parallel: limiter saturated")

// AcquireTimeout takes a slot, waiting at most wait for one to free up:
// it returns nil on success, ErrSaturated when the admission window
// expires, and ctx.Err() when the caller gives up first. wait <= 0 means
// "don't wait at all" — a pure TryAcquire with error reporting. This is
// the load-shedding primitive: instead of queueing until the caller's
// deadline, a saturated server can bound admission latency and tell the
// client to back off.
func (l *Limiter) AcquireTimeout(ctx context.Context, wait time.Duration) error {
	if l.TryAcquire() {
		return nil
	}
	if wait <= 0 {
		return ErrSaturated
	}
	if ctx == nil {
		ctx = context.Background()
	}
	l.waiting.Add(1)
	defer l.waiting.Add(-1)
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case l.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return ErrSaturated
	}
}

// TryAcquire takes a slot without blocking, reporting whether it succeeded.
func (l *Limiter) TryAcquire() bool {
	select {
	case l.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release returns a slot taken by Acquire or TryAcquire. Releasing more
// than was acquired panics: that is always a caller bug.
func (l *Limiter) Release() {
	select {
	case <-l.sem:
	default:
		panic("parallel: Limiter.Release without matching Acquire")
	}
}

// InUse returns the number of currently held slots (racy by nature; for
// metrics and tests).
func (l *Limiter) InUse() int { return len(l.sem) }

// Waiting returns the number of callers currently blocked in Acquire or
// AcquireTimeout — the admission queue depth (racy by nature; for
// metrics and tests).
func (l *Limiter) Waiting() int { return int(l.waiting.Load()) }

// Map runs fn(i) for every i in [0, n) and returns the results in index
// order. Error and cancellation semantics match ForEach; on error the
// partial results slice is still returned (slots whose fn completed are
// filled, others hold zero values), mirroring sequential loops that
// return partial output plus the first error.
func Map[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(ctx, n, workers, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	return out, err
}
