package dmfserver

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"perfknow/internal/perfdmf"
)

// TestAdmissionTryAcquire: with no admission window a free slot is taken
// at once and a full semaphore sheds at once.
func TestAdmissionTryAcquire(t *testing.T) {
	a := newAdmission(1)
	if err := a.acquire(context.Background(), 0); err != nil {
		t.Fatalf("free slot, no window: %v", err)
	}
	start := time.Now()
	if err := a.acquire(context.Background(), 0); !errors.Is(err, errSaturated) {
		t.Fatalf("full, no window: %v, want errSaturated", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("full, no window: shed after %v, want at once", took)
	}
	a.release()
	if n := len(a.sem); n != 0 {
		t.Fatalf("%d slots held after every release", n)
	}
}

// TestAdmissionAcquireTimeout: a full semaphore sheds once the window
// expires, and a slot freed inside the window is taken.
func TestAdmissionAcquireTimeout(t *testing.T) {
	a := newAdmission(1)
	if err := a.acquire(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if err := a.acquire(context.Background(), 5*time.Millisecond); !errors.Is(err, errSaturated) {
		t.Fatalf("full, 5ms window: %v, want errSaturated", err)
	}

	done := make(chan error, 1)
	go func() { done <- a.acquire(context.Background(), time.Second) }()
	time.Sleep(10 * time.Millisecond)
	a.release()
	if err := <-done; err != nil {
		t.Fatalf("slot freed inside the window: %v", err)
	}
	a.release()
	if n := len(a.sem); n != 0 {
		t.Fatalf("%d slots held after every release", n)
	}
}

// TestAdmissionAcquireRespectsContext: on a full semaphore the caller's
// cancellation ends the wait ahead of the window, and takes no slot.
func TestAdmissionAcquireRespectsContext(t *testing.T) {
	a := newAdmission(1)
	if err := a.acquire(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := a.acquire(ctx, time.Minute); !errors.Is(err, context.Canceled) {
		t.Fatalf("full, cancelled caller: %v, want context.Canceled", err)
	}
	ctx, cancel = context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := a.acquire(ctx, time.Minute); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("full, caller deadline inside the window: %v, want context.DeadlineExceeded", err)
	}
	a.release()
	if n := len(a.sem); n != 0 {
		t.Fatalf("%d slots held after every release", n)
	}
}

// TestAdmissionBoundsConcurrency: 20 callers through 3 slots never hold
// more than 3 at once.
func TestAdmissionBoundsConcurrency(t *testing.T) {
	a := newAdmission(3)
	var (
		mu           sync.Mutex
		cur, highest int
		wg           sync.WaitGroup
	)
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := a.acquire(context.Background(), time.Minute); err != nil {
				t.Errorf("acquire: %v", err)
				return
			}
			mu.Lock()
			cur++
			highest = max(highest, cur)
			mu.Unlock()
			time.Sleep(time.Millisecond)
			mu.Lock()
			cur--
			mu.Unlock()
			a.release()
		}()
	}
	wg.Wait()
	if highest > 3 {
		t.Fatalf("%d concurrent holders, 3 slots", highest)
	}
}

// TestAdmissionWaitingCount: a caller inside its admission window is
// counted as waiting, and uncounted once it is admitted.
func TestAdmissionWaitingCount(t *testing.T) {
	a := newAdmission(1)
	if err := a.acquire(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- a.acquire(context.Background(), time.Minute) }()
	deadline := time.Now().Add(5 * time.Second)
	for a.waiting.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("waiting = %d, want 1", a.waiting.Load())
		}
		time.Sleep(time.Millisecond)
	}
	a.release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := a.waiting.Load(); n != 0 {
		t.Fatalf("waiting = %d after admission, want 0", n)
	}
	a.release()
}

func TestAdmissionReleaseWithoutAcquirePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("release without acquire must panic")
		}
	}()
	newAdmission(2).release()
}

// TestAdmissionDefaultCap: Config.Jobs <= 0 resolves to GOMAXPROCS slots.
func TestAdmissionDefaultCap(t *testing.T) {
	for _, jobs := range []int{0, -1} {
		srv, err := New(Config{Repo: perfdmf.NewRepository(), Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := srv.reg.Snapshot().Gauges["analysis_slots_cap"], float64(runtime.GOMAXPROCS(0)); got != want {
			t.Errorf("Jobs %d: analysis_slots_cap = %v, want GOMAXPROCS (%v)", jobs, got, want)
		}
		srv.Close()
	}
}

// TestAdmissionShedAndCancel drives the daemon with its only slot held: a
// negative AdmissionWait sheds with 429 + Retry-After without waiting, and a
// request whose caller gives up inside the window is answered 503.
func TestAdmissionShedAndCancel(t *testing.T) {
	for _, tc := range []struct {
		name   string
		wait   time.Duration
		caller time.Duration
		status int
	}{
		{"negative AdmissionWait", -1, time.Minute, http.StatusTooManyRequests},
		{"caller gone inside the window", time.Minute, 20 * time.Millisecond, http.StatusServiceUnavailable},
	} {
		srv, err := New(Config{Repo: perfdmf.NewRepository(), Jobs: 1, AdmissionWait: tc.wait,
			Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.slots.acquire(context.Background(), 0); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), tc.caller)
		r := httptest.NewRequest("POST", "/api/v1/diagnose",
			strings.NewReader(`{"script":"load_balance","args":[]}`)).WithContext(ctx)
		w := httptest.NewRecorder()
		start := time.Now()
		srv.Handler().ServeHTTP(w, r)
		took := time.Since(start)
		cancel()
		srv.slots.release()
		srv.Close()

		if w.Code != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, w.Code, tc.status)
		}
		if tc.status == http.StatusTooManyRequests && (w.Header().Get("Retry-After") == "" || took > DefaultAdmissionWait) {
			t.Errorf("%s: Retry-After %q after %v; want one, without waiting", tc.name, w.Header().Get("Retry-After"), took)
		}
	}
}
