package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersResolution(t *testing.T) {
	defer SetDefaultWorkers(0)

	SetDefaultWorkers(0)
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d, want 3", got)
	}
	if got := Workers(0); got != DefaultWorkers() {
		t.Errorf("Workers(0) = %d, want DefaultWorkers %d", got, DefaultWorkers())
	}
	SetDefaultWorkers(5)
	if got := DefaultWorkers(); got != 5 {
		t.Errorf("DefaultWorkers = %d after SetDefaultWorkers(5)", got)
	}
	if got := Workers(-1); got != 5 {
		t.Errorf("Workers(-1) = %d, want 5", got)
	}
	SetDefaultWorkers(-10) // negative resets to GOMAXPROCS
	if got := DefaultWorkers(); got < 1 {
		t.Errorf("DefaultWorkers = %d, want >= 1", got)
	}
}

func TestForEachRunsAllItems(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		n := 137
		hits := make([]int64, n)
		if err := ForEach(context.Background(), n, workers, func(i int) error { atomic.AddInt64(&hits[i], 1); return nil }); err != nil {
			t.Fatal(err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", workers, i, h)
			}
		}
	}
}

// TestForEachWorkerOneIsSequential asserts the pool-size-1 path is the
// literal sequential loop: same goroutine, strict index order — bit-for-bit
// the behaviour of the code it replaces.
func TestForEachWorkerOneIsSequential(t *testing.T) {
	var order []int
	// no locking: must be same goroutine
	if err := ForEach(context.Background(), 50, 1, func(i int) error { order = append(order, i); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(order) != 50 {
		t.Fatalf("ran %d items, want 50", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (workers=1 must run in index order)", i, v, i)
		}
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic in worker was swallowed")
		}
		if s, ok := r.(string); !ok || s != "boom" {
			t.Fatalf("recovered %v, want \"boom\"", r)
		}
	}()
	ForEach(context.Background(), 64, 4, func(i int) error {
		if i == 13 {
			panic("boom")
		}
		return nil
	})
}

func TestForEachFirstErrorByIndex(t *testing.T) {
	// Several items fail; the reported error must always be the
	// lowest-index one, regardless of scheduling. Run many rounds to give
	// the scheduler chances to misbehave.
	for round := 0; round < 50; round++ {
		err := ForEach(context.Background(), 64, 8, func(i int) error {
			if i%10 == 7 { // fails at 7, 17, 27, ...
				return fmt.Errorf("item %d failed", i)
			}
			return nil
		})
		if err == nil {
			t.Fatal("expected an error")
		}
		if err.Error() != "item 7 failed" {
			t.Fatalf("round %d: got %q, want the lowest-index error \"item 7 failed\"", round, err)
		}
	}
}

func TestForEachStopsClaimingAfterError(t *testing.T) {
	var ran int64
	sentinel := errors.New("stop")
	err := ForEach(context.Background(), 1000, 4, func(i int) error {
		atomic.AddInt64(&ran, 1)
		if i == 0 {
			return sentinel
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if n := atomic.LoadInt64(&ran); n >= 1000 {
		t.Fatalf("all %d items ran after an early error; fan-out did not stop", n)
	}
}

func TestForEachCancellationMidFanOut(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran int64
	started := make(chan struct{})
	var once sync.Once
	err := func() error {
		go func() {
			<-started
			cancel()
		}()
		return ForEach(ctx, 10000, 4, func(i int) error {
			once.Do(func() { close(started) })
			atomic.AddInt64(&ran, 1)
			time.Sleep(100 * time.Microsecond)
			return nil
		})
	}()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := atomic.LoadInt64(&ran); n >= 10000 {
		t.Fatalf("all %d items ran despite mid-fan-out cancellation", n)
	}
}

func TestForEachSequentialCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran int
	err := ForEach(ctx, 100, 1, func(i int) error {
		ran++
		if i == 9 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 10 {
		t.Fatalf("ran %d items, want exactly 10 (sequential path stops at the check)", ran)
	}
}

func TestForEachCompletedWorkIgnoresLateCancel(t *testing.T) {
	// If every item ran before cancellation is observed, the call did all
	// its work and must report success.
	ctx, cancel := context.WithCancel(context.Background())
	var ran int64
	err := ForEach(ctx, 8, 4, func(i int) error {
		atomic.AddInt64(&ran, 1)
		return nil
	})
	cancel()
	if err != nil {
		t.Fatalf("err = %v, want nil for fully-completed work", err)
	}
	if ran != 8 {
		t.Fatalf("ran %d, want 8", ran)
	}
}

func TestForEachNilContext(t *testing.T) {
	if err := ForEach(nil, 16, 4, func(int) error { return nil }); err != nil {
		t.Fatalf("err = %v", err)
	}
}

func TestMapOrderPreserved(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		got, err := Map(context.Background(), 100, workers, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestMapWorkerOneBitForBit: Map with one worker must produce byte-identical
// results to the plain sequential loop, including partial output on error.
func TestMapWorkerOneBitForBit(t *testing.T) {
	fn := func(i int) (string, error) {
		if i == 5 {
			return "", fmt.Errorf("bad %d", i)
		}
		return fmt.Sprintf("v%03d", i), nil
	}
	// Reference: the sequential loop Map replaces.
	want := make([]string, 10)
	var wantErr error
	for i := 0; i < 10; i++ {
		v, err := fn(i)
		if err != nil {
			wantErr = err
			break
		}
		want[i] = v
	}
	got, gotErr := Map(context.Background(), 10, 1, fn)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("err = %v, want %v", gotErr, wantErr)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestMapPartialResultsOnError(t *testing.T) {
	got, err := Map(context.Background(), 20, 4, func(i int) (int, error) {
		if i == 10 {
			return 0, errors.New("mid failure")
		}
		return i + 1, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if len(got) != 20 {
		t.Fatalf("len = %d, want full-length slice with partial results", len(got))
	}
	// Items before the failure index are guaranteed complete only in the
	// sequential path; here just check the slice shape and that completed
	// slots carry the right value.
	for i, v := range got {
		if v != 0 && v != i+1 {
			t.Fatalf("got[%d] = %d, want 0 or %d", i, v, i+1)
		}
	}
}

func TestForEachZeroAndNegativeN(t *testing.T) {
	for _, n := range []int{0, -3} {
		if err := ForEach(context.Background(), n, 4, func(int) error { return errors.New("x") }); err != nil {
			t.Fatalf("ForEach(%d items) = %v", n, err)
		}
	}
}

func TestLimiterBoundsConcurrency(t *testing.T) {
	l := NewLimiter(3)
	if l.Cap() != 3 {
		t.Fatalf("Cap = %d, want 3", l.Cap())
	}
	var (
		mu      sync.Mutex
		cur     int
		highest int
	)
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := l.Acquire(context.Background()); err != nil {
				t.Errorf("Acquire: %v", err)
				return
			}
			mu.Lock()
			cur++
			if cur > highest {
				highest = cur
			}
			mu.Unlock()
			time.Sleep(time.Millisecond)
			mu.Lock()
			cur--
			mu.Unlock()
			l.Release()
		}()
	}
	wg.Wait()
	if highest > 3 {
		t.Fatalf("observed %d concurrent holders, cap 3", highest)
	}
	if l.InUse() != 0 {
		t.Fatalf("InUse = %d after all released", l.InUse())
	}
}

func TestLimiterAcquireRespectsContext(t *testing.T) {
	l := NewLimiter(1)
	if err := l.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := l.Acquire(ctx); err == nil {
		t.Fatal("Acquire on a full limiter with cancelled context must fail")
	}
	l.Release()
}

func TestLimiterTryAcquire(t *testing.T) {
	l := NewLimiter(1)
	if !l.TryAcquire() {
		t.Fatal("first TryAcquire should succeed")
	}
	if l.TryAcquire() {
		t.Fatal("second TryAcquire should fail while slot held")
	}
	l.Release()
	if !l.TryAcquire() {
		t.Fatal("TryAcquire after Release should succeed")
	}
	l.Release()
}

func TestLimiterReleaseWithoutAcquirePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Release without Acquire must panic")
		}
	}()
	NewLimiter(2).Release()
}

func TestLimiterDefaultCap(t *testing.T) {
	SetDefaultWorkers(7)
	defer SetDefaultWorkers(0)
	if got := NewLimiter(0).Cap(); got != 7 {
		t.Fatalf("Cap = %d, want DefaultWorkers (7)", got)
	}
}

func TestLimiterAcquireTimeout(t *testing.T) {
	l := NewLimiter(1)

	// Free slot: acquired immediately even with wait 0.
	if err := l.AcquireTimeout(context.Background(), 0); err != nil {
		t.Fatalf("AcquireTimeout on free limiter: %v", err)
	}

	// Saturated, no admission window: sheds with ErrSaturated.
	if err := l.AcquireTimeout(context.Background(), 0); !errors.Is(err, ErrSaturated) {
		t.Fatalf("AcquireTimeout(wait=0) on full limiter = %v, want ErrSaturated", err)
	}

	// Saturated, short window, nothing frees: sheds after the window.
	if err := l.AcquireTimeout(context.Background(), 5*time.Millisecond); !errors.Is(err, ErrSaturated) {
		t.Fatalf("AcquireTimeout(5ms) on full limiter = %v, want ErrSaturated", err)
	}

	// Caller cancellation wins over the admission window.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := l.AcquireTimeout(ctx, time.Minute); !errors.Is(err, context.Canceled) {
		t.Fatalf("AcquireTimeout with cancelled ctx = %v, want context.Canceled", err)
	}

	// A slot freed within the window is acquired.
	done := make(chan error, 1)
	go func() { done <- l.AcquireTimeout(context.Background(), time.Second) }()
	time.Sleep(10 * time.Millisecond)
	l.Release()
	if err := <-done; err != nil {
		t.Fatalf("AcquireTimeout after Release: %v", err)
	}
	l.Release()
}
