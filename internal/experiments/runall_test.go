package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stubRegistry replaces the registry, for the rest of the test, with n rows
// S000, S001, ... whose run is row(i). It returns the row IDs.
func stubRegistry(t *testing.T, n int, row func(i int) (*Result, error)) []string {
	t.Helper()
	saved := registry
	t.Cleanup(func() { registry = saved })
	registry = nil
	var ids []string
	for i := range n {
		id := fmt.Sprintf("S%03d", i)
		ids = append(ids, id)
		registry = append(registry, struct {
			id, title string
			run       func() (*Result, error)
		}{id, "stub " + id, func() (*Result, error) { return row(i) }})
	}
	return ids
}

// TestRunAllRunsEveryRow: every row runs exactly once and has a result,
// whatever -j is, including more workers than rows.
func TestRunAllRunsEveryRow(t *testing.T) {
	const n = 137
	for _, jobs := range []int{1, 2, 8, 100} {
		hits := make([]atomic.Int64, n)
		stubRegistry(t, n, func(i int) (*Result, error) {
			hits[i].Add(1)
			return &Result{}, nil
		})
		got, err := RunAll("", jobs)
		if err != nil {
			t.Fatalf("-j %d: %v", jobs, err)
		}
		if len(got) != n {
			t.Fatalf("-j %d: %d results, want %d", jobs, len(got), n)
		}
		for i := range hits {
			if h := hits[i].Load(); h != 1 {
				t.Fatalf("-j %d: row %d ran %d times", jobs, i, h)
			}
		}
	}
}

// TestRunAllJobsOneIsSequential: at -j 1 RunAll is the plain loop on the
// caller, rows in registry order. The rows append without a lock, so
// -race also fails if any row runs on another goroutine.
func TestRunAllJobsOneIsSequential(t *testing.T) {
	var order []int
	stubRegistry(t, 50, func(i int) (*Result, error) {
		order = append(order, i)
		return &Result{}, nil
	})
	if _, err := RunAll("", 1); err != nil {
		t.Fatal(err)
	}
	if len(order) != 50 {
		t.Fatalf("ran %d rows, want 50", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (-j 1 runs in registry order)", i, v, i)
		}
	}
}

// TestRunAllReturnsLowestIndexError: when several rows fail, the error
// reported is always the lowest-index one, however the workers are
// scheduled. Many rounds give the scheduler chances to misbehave.
func TestRunAllReturnsLowestIndexError(t *testing.T) {
	failures := make([]error, 64)
	for i := 7; i < len(failures); i += 10 { // fails at 7, 17, 27, ...
		failures[i] = fmt.Errorf("row %d failed", i)
	}
	stubRegistry(t, len(failures), func(i int) (*Result, error) {
		if i == 7 { // the lowest failure lands last, after the others ran
			time.Sleep(2 * time.Millisecond)
		}
		if failures[i] != nil {
			return nil, failures[i]
		}
		return &Result{}, nil
	})
	for round := range 50 {
		got, err := RunAll("", 8)
		if !errors.Is(err, failures[7]) {
			t.Fatalf("round %d: error %v, want the lowest-index %q", round, err, failures[7])
		}
		if len(got) != 7 {
			t.Fatalf("round %d: %d results, want the 7 before row 7", round, len(got))
		}
	}
}

// TestRunAllStopsClaimingAfterError: once a row fails no worker claims a
// new row, so an early failure does not run the rest of the registry; at
// -j 1 nothing after the failing row runs.
func TestRunAllStopsClaimingAfterError(t *testing.T) {
	const n = 1000
	stop := errors.New("stop")
	var ran atomic.Int64
	stubRegistry(t, n, func(i int) (*Result, error) {
		ran.Add(1)
		if i == 0 {
			return nil, stop
		}
		time.Sleep(time.Millisecond)
		return &Result{}, nil
	})
	for _, jobs := range []int{1, 4} {
		ran.Store(0)
		if _, err := RunAll("", jobs); !errors.Is(err, stop) {
			t.Fatalf("-j %d: error %v, want row 0's", jobs, err)
		}
		if r := ran.Load(); r >= n || (jobs == 1 && r != 1) {
			t.Fatalf("-j %d: %d rows ran after row 0 failed", jobs, r-1)
		}
	}
}

// TestRunAllRegistryOrder: results come back in registry order at every
// -j, though rows finish out of order.
func TestRunAllRegistryOrder(t *testing.T) {
	const n = 100
	ids := stubRegistry(t, n, func(i int) (*Result, error) {
		time.Sleep(time.Duration((n-i)%7) * 100 * time.Microsecond)
		return &Result{ID: fmt.Sprintf("S%03d", i), Lines: []string{fmt.Sprint(i * i)}}, nil
	})
	for _, jobs := range []int{1, 4, 16} {
		got, err := RunAll("", jobs)
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range got {
			if res.ID != ids[i] || res.Lines[0] != fmt.Sprint(i*i) {
				t.Fatalf("-j %d: result %d is %s %v, want %s [%d]", jobs, i, res.ID, res.Lines, ids[i], i*i)
			}
		}
	}
}

// TestRunAllJobsOneBitForBit: RunAll at -j 1 gives exactly what the plain
// loop of Run over the registry gives, including the partial output and
// the error when a row fails.
func TestRunAllJobsOneBitForBit(t *testing.T) {
	ids := stubRegistry(t, 10, func(i int) (*Result, error) {
		if i == 5 {
			return nil, fmt.Errorf("bad %d", i)
		}
		return &Result{Lines: []string{fmt.Sprintf("v%03d", i)}}, nil
	})
	// Reference: the sequential loop RunAll replaces.
	var want []*Result
	var wantErr error
	for _, id := range ids {
		res, err := Run(id)
		if err != nil {
			wantErr = err
			break
		}
		want = append(want, res)
	}
	got, err := RunAll("", 1)
	if err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("error %v, want %v", err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("results %v, want %v", got, want)
	}
}

// TestRunAllPartialResultsOnError gives the real registry two failing rows,
// at k and near the end: at -j 1 and -j 8 RunAll returns exactly the
// results of the rows before k, and row k's error.
func TestRunAllPartialResultsOnError(t *testing.T) {
	const k = 3
	var want []*Result
	for _, id := range IDs()[:k] {
		res, err := Run(id)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}

	saved := registry
	defer func() { registry = saved }()
	registry = slices.Clone(saved)
	errK := errors.New("row k failed")
	registry[k].run = func() (*Result, error) { return nil, errK }
	registry[len(registry)-2].run = func() (*Result, error) { return nil, errors.New("a later row failed") }

	for _, jobs := range []int{1, 8} {
		got, err := RunAll("", jobs)
		if !errors.Is(err, errK) {
			t.Errorf("-j %d: error %v, want row %d's", jobs, err, k)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("-j %d: %d results, want the %d before row %d", jobs, len(got), k, k)
		}
	}
}

// TestRunAllNoMatchingRows: a prefix no row matches is an error with no
// results, at any -j, and runs nothing.
func TestRunAllNoMatchingRows(t *testing.T) {
	var ran atomic.Int64
	stubRegistry(t, 5, func(int) (*Result, error) {
		ran.Add(1)
		return &Result{}, nil
	})
	for _, jobs := range []int{-3, 0, 1, 4} {
		got, err := RunAll("Z", jobs)
		if err == nil || got != nil {
			t.Fatalf("-j %d: %d results, error %v; want none and an error", jobs, len(got), err)
		}
	}
	if r := ran.Load(); r != 0 {
		t.Fatalf("%d rows ran for an unmatched prefix", r)
	}
}

// TestRunAllJobsResolution: -j bounds the rows in flight; -j <= 0 means
// GOMAXPROCS, and no more workers start than there are rows.
func TestRunAllJobsResolution(t *testing.T) {
	const n = 12
	var (
		mu           sync.Mutex
		cur, highest int
	)
	stubRegistry(t, n, func(int) (*Result, error) {
		mu.Lock()
		cur++
		highest = max(highest, cur)
		mu.Unlock()
		time.Sleep(2 * time.Millisecond)
		mu.Lock()
		cur--
		mu.Unlock()
		return &Result{}, nil
	})
	procs := min(runtime.GOMAXPROCS(0), n)
	for _, tc := range []struct{ jobs, bound int }{{1, 1}, {3, 3}, {0, procs}, {-1, procs}, {100, n}} {
		highest = 0
		got, err := RunAll("", tc.jobs)
		if err != nil || len(got) != n {
			t.Fatalf("-j %d: %d results, error %v", tc.jobs, len(got), err)
		}
		if highest > tc.bound || highest < 1 {
			t.Errorf("-j %d: %d rows in flight at once, want 1..%d", tc.jobs, highest, tc.bound)
		}
	}
}
