package dmfclient

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"perfknow/internal/obs"
	"perfknow/internal/perfdmf"
)

// TestListingFailuresAreReturned: a failing transport surfaces in-band from
// the listings, and a listing after recovery succeeds again.
func TestListingFailuresAreReturned(t *testing.T) {
	var fail atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fail.Load() {
			http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"applications":["a"],"experiments":[],"trials":[]}`))
	}))
	defer ts.Close()

	c, err := New(ts.URL, WithRetryPolicy(RetryPolicy{MaxAttempts: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if apps, err := c.ListApplications(); err != nil || len(apps) != 1 {
		t.Fatalf("applications = %v, %v", apps, err)
	}

	fail.Store(true)
	if _, err := c.ListApplications(); err == nil {
		t.Fatal("ListApplications swallowed the transport error")
	}
	if _, err := c.ListTrials("a", "e"); err == nil {
		t.Fatal("ListTrials swallowed the transport error")
	}
	fail.Store(false)
	if _, err := c.ListExperiments("a"); err != nil {
		t.Fatalf("ListExperiments after recovery: %v", err)
	}
}

// TestNotFoundSentinel: a 404 response unwraps to perfdmf.ErrNotFound, so
// errors.Is behaves identically against remote and local repositories.
func TestNotFoundSentinel(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"trial not found"}`, http.StatusNotFound)
	}))
	defer ts.Close()

	c, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.GetTrialContext(context.Background(), "a", "e", "t")
	if !errors.Is(err, perfdmf.ErrNotFound) {
		t.Fatalf("remote 404 does not wrap perfdmf.ErrNotFound: %v", err)
	}
}

// TestSaveRefusesEmptyCoordinate: a trial missing a coordinate is refused
// before any request is sent, as a get or delete of one is — the daemon
// would refuse it too, since no route could read it back.
func TestSaveRefusesEmptyCoordinate(t *testing.T) {
	c, err := New("http://127.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, set := range []func(*perfdmf.Trial){
		func(tr *perfdmf.Trial) { tr.App = "" },
		func(tr *perfdmf.Trial) { tr.Experiment = "" },
		func(tr *perfdmf.Trial) { tr.Name = "" },
	} {
		tr := minimalTrial()
		set(tr)
		for _, err := range []error{c.SaveContext(ctx, tr), c.SaveHintedContext(ctx, tr, "http://owner:7360")} {
			const want = "dmfclient: save trial: app, experiment and trial are required"
			if err == nil || err.Error() != want {
				t.Errorf("save of %q/%q/%q = %v, want %q", tr.App, tr.Experiment, tr.Name, err, want)
			}
		}
	}
	if n := c.Stats().Attempts; n != 0 {
		t.Fatalf("refused saves sent %d requests", n)
	}
}

// TestListingConcurrentAccess is the race regression test for the listing
// path: concurrent listings, Stats reads and span recording, failed spans
// included, must be safe to interleave from many goroutines. Run with -race.
func TestListingConcurrentAccess(t *testing.T) {
	var fail atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fail.Load() {
			http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"applications":["a"]}`))
	}))
	defer ts.Close()

	tracer := obs.NewTracer()

	// MaxAttempts 1 keeps the failing half of the workload fast.
	c, err := New(ts.URL, WithTracer(tracer), WithRetryPolicy(RetryPolicy{MaxAttempts: 1}))
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				switch i % 3 {
				case 0:
					fail.Store(j%2 == 0)
					_, _ = c.ListApplications()
				case 1:
					_, _ = c.ListExperiments("a")
				default:
					_ = c.Stats()
				}
			}
		}(i)
	}
	wg.Wait()
	failed := 0
	for _, tr := range tracer.Traces() {
		for _, sp := range tr.Spans {
			if sp.Error != "" {
				failed++
			}
		}
	}
	if failed == 0 {
		t.Fatal("no failed listing spans recorded; race coverage is vacuous")
	}
}
