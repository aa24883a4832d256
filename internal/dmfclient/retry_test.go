package dmfclient

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"perfknow/internal/dmfwire"
	"perfknow/internal/faults"
	"perfknow/internal/perfdmf"
)

// fastRetry keeps test retries down in the microsecond-to-millisecond
// range so the full table runs in well under a second.
func fastRetry(maxAttempts int) Option {
	return WithRetryPolicy(RetryPolicy{
		MaxAttempts: maxAttempts,
		BaseDelay:   time.Millisecond,
		MaxDelay:    5 * time.Millisecond,
	})
}

func minimalTrial() *perfdmf.Trial {
	tr := perfdmf.NewTrial("a", "e", "t", 1)
	tr.AddMetric(perfdmf.TimeMetric)
	ev := tr.EnsureEvent("main")
	ev.Calls[0] = 1
	ev.SetValue(perfdmf.TimeMetric, 0, 10, 10)
	return tr
}

// TestRetryStatusTable pins the retryability classification: transient
// statuses (429, 5xx) are retried up to MaxAttempts, permanent 4xx get
// exactly one attempt, and 404 additionally maps onto perfdmf.ErrNotFound.
func TestRetryStatusTable(t *testing.T) {
	cases := []struct {
		status       int
		wantAttempts int32
		wantNotFound bool
	}{
		{http.StatusBadRequest, 1, false},
		{http.StatusNotFound, 1, true},
		{http.StatusTooManyRequests, 2, false},
		{http.StatusInternalServerError, 2, false},
		{http.StatusServiceUnavailable, 2, false},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("status_%d", tc.status), func(t *testing.T) {
			var hits atomic.Int32
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				hits.Add(1)
				http.Error(w, `{"error":"nope"}`, tc.status)
			}))
			defer ts.Close()

			c, err := New(ts.URL, fastRetry(2))
			if err != nil {
				t.Fatal(err)
			}
			err = c.DeleteContext(context.Background(), "a", "e", "t")
			if err == nil {
				t.Fatal("expected error")
			}
			if got := hits.Load(); got != tc.wantAttempts {
				t.Errorf("attempts = %d, want %d", got, tc.wantAttempts)
			}
			if errors.Is(err, perfdmf.ErrNotFound) != tc.wantNotFound {
				t.Errorf("errors.Is(err, ErrNotFound) = %v, want %v (err: %v)",
					!tc.wantNotFound, tc.wantNotFound, err)
			}
		})
	}
}

// TestRetryDeadlineGiveUp: when the server's Retry-After pushes the next
// retry past the context deadline, the client gives up immediately —
// wrapping context.DeadlineExceeded — instead of sleeping into the wall.
func TestRetryDeadlineGiveUp(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Retry-After", "5")
		http.Error(w, `{"error":"busy"}`, http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	c, err := New(ts.URL, fastRetry(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()

	begin := time.Now()
	_, err = c.GetTrialContext(ctx, "a", "e", "t")
	elapsed := time.Since(begin)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped context.DeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("gave up after %v; should not have slept toward Retry-After: 5", elapsed)
	}
	if got := hits.Load(); got != 1 {
		t.Errorf("attempts = %d, want 1 (backoff cannot fit the deadline)", got)
	}
}

// TestRetryAfterZeroRetriesPromptly: Retry-After: 0 means "go ahead now";
// the client retries on its own (small) backoff and succeeds.
func TestRetryAfterZeroRetriesPromptly(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{"error":"transient"}`, http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"applications":["a"]}`))
	}))
	defer ts.Close()

	c, err := New(ts.URL, fastRetry(3))
	if err != nil {
		t.Fatal(err)
	}
	apps, err := c.ListApplications()
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 1 || apps[0] != "a" {
		t.Fatalf("applications = %v", apps)
	}
	if got := hits.Load(); got != 2 {
		t.Errorf("attempts = %d, want 2", got)
	}
	if st := c.Stats(); st.Retries != 1 || st.Attempts != 2 {
		t.Errorf("stats = %+v, want 1 retry over 2 attempts", st)
	}
}

// TestUploadRetryKeepsIdempotencyKey: all attempts of one upload must
// carry the same Idempotency-Key (that is what lets the server
// deduplicate) with an incrementing X-Retry-Attempt, and a fresh upload
// must mint a fresh key.
func TestUploadRetryKeepsIdempotencyKey(t *testing.T) {
	type seen struct{ key, attempt string }
	var (
		mu      sync.Mutex
		records []seen
		hits    atomic.Int32
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		records = append(records, seen{
			key:     r.Header.Get("Idempotency-Key"),
			attempt: r.Header.Get(faults.HeaderRetryAttempt),
		})
		mu.Unlock()
		if hits.Add(1) == 1 {
			http.Error(w, `{"error":"flake"}`, http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusCreated)
		_, _ = w.Write([]byte(`{}`))
	}))
	defer ts.Close()

	c, err := New(ts.URL, fastRetry(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SaveContext(context.Background(), minimalTrial()); err != nil {
		t.Fatal(err)
	}
	if err := c.SaveContext(context.Background(), minimalTrial()); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(records) != 3 {
		t.Fatalf("requests = %d, want 3 (retry + fresh upload): %+v", len(records), records)
	}
	if records[0].key == "" {
		t.Fatal("first upload carried no Idempotency-Key")
	}
	if records[0].key != records[1].key {
		t.Errorf("retry changed the idempotency key: %q -> %q", records[0].key, records[1].key)
	}
	if records[2].key == records[0].key {
		t.Errorf("fresh upload reused key %q", records[2].key)
	}
	if records[0].attempt != "0" || records[1].attempt != "1" || records[2].attempt != "0" {
		t.Errorf("retry-attempt headers = %q, %q, %q; want 0, 1, 0",
			records[0].attempt, records[1].attempt, records[2].attempt)
	}
}

// TestRetryClassFromRoute: against a daemon that always answers 503, each
// call makes as many attempts as its route's dmfwire.Retry class allows,
// and only a Keyed route's attempts carry an Idempotency-Key — one key
// across them.
func TestRetryClassFromRoute(t *testing.T) {
	var (
		mu   sync.Mutex
		keys []string
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		keys = append(keys, r.Header.Get("Idempotency-Key"))
		mu.Unlock()
		http.Error(w, `{"error":"down"}`, http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	c, err := New(ts.URL, fastRetry(3))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	self := "http://127.0.0.1:7461"
	m := dmfwire.Membership{
		From:  self,
		Ring:  dmfwire.Ring{Epoch: 1, Replicas: 1, VNodes: 8, Peers: []string{self}},
		Peers: []dmfwire.PeerStatus{{Peer: self, Incarnation: 1, State: dmfwire.StateAlive}},
	}
	for _, tc := range []struct {
		name     string
		call     func() error
		attempts int
		keyed    bool
	}{
		{"Gossip (Once)", func() error { _, err := c.Gossip(ctx, m); return err }, 1, false},
		{"ClusterGossipView (Idempotent)", func() error { _, err := c.ClusterGossipView(ctx); return err }, 3, false},
		{"OpenStream (Keyed)", func() error { _, err := c.OpenStream(ctx, "a", "e", "t", 1, []string{"TIME"}); return err }, 3, true},
		{"Append (Idempotent: the seq is the dedup key)", func() error { _, err := c.Append(ctx, "s1", 1, nil); return err }, 3, false},
	} {
		mu.Lock()
		keys = nil
		mu.Unlock()
		if err := tc.call(); err == nil {
			t.Fatalf("%s succeeded against a 503", tc.name)
		}
		mu.Lock()
		got := append([]string(nil), keys...)
		mu.Unlock()
		if len(got) != tc.attempts {
			t.Errorf("%s: %d attempts, want %d", tc.name, len(got), tc.attempts)
		}
		for _, k := range got {
			if (k != "") != tc.keyed || k != got[0] {
				t.Errorf("%s: idempotency keys %q", tc.name, got)
				break
			}
		}
	}
}

// TestTruncatedSuccessBodyRetries: a 2xx whose JSON body does not parse
// (the signature of a mid-flight truncation) is retried, because for an
// idempotent request re-fetching the full body is always safe.
func TestTruncatedSuccessBodyRetries(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if hits.Add(1) == 1 {
			_, _ = w.Write([]byte(`{"applications":["a`)) // cut mid-stream
			return
		}
		_, _ = w.Write([]byte(`{"applications":["a"]}`))
	}))
	defer ts.Close()

	c, err := New(ts.URL, fastRetry(3))
	if err != nil {
		t.Fatal(err)
	}
	apps, err := c.ListApplications()
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 1 {
		t.Fatalf("applications = %v", apps)
	}
	if got := hits.Load(); got != 2 {
		t.Errorf("attempts = %d, want 2", got)
	}
}

// TestBackoffDeterministic pins the jitter contract: one policy produces
// one schedule, and different seeds decorrelate.
func TestBackoffDeterministic(t *testing.T) {
	p := RetryPolicy{BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second, Seed: 1}.withDefaults()
	for attempt := 0; attempt < 4; attempt++ {
		a := p.backoff("GET", "/x", attempt, 0)
		b := p.backoff("GET", "/x", attempt, 0)
		if a != b {
			t.Fatalf("attempt %d: backoff not deterministic: %v vs %v", attempt, a, b)
		}
		if a < p.BaseDelay/2 || a > p.MaxDelay {
			t.Fatalf("attempt %d: backoff %v outside [base/2, max]", attempt, a)
		}
	}
	q := p
	q.Seed = 2
	same := 0
	for attempt := 0; attempt < 4; attempt++ {
		if p.backoff("GET", "/x", attempt, 0) == q.backoff("GET", "/x", attempt, 0) {
			same++
		}
	}
	if same == 4 {
		t.Error("different seeds produced identical schedules")
	}
	if got := p.backoff("GET", "/x", 0, 10*time.Second); got != 10*time.Second {
		t.Errorf("Retry-After floor ignored: %v", got)
	}
}

// TestParseRetryAfterTable pins both RFC 9110 Retry-After forms:
// delay-seconds (what perfdmfd emits) and HTTP-date (what reverse proxies
// in front of a peer emit). Garbage and times already past must yield 0,
// never a negative or huge sleep.
func TestParseRetryAfterTable(t *testing.T) {
	now := time.Date(2026, time.August, 7, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		name  string
		value string
		want  time.Duration
	}{
		{"absent", "", 0},
		{"delta seconds", "7", 7 * time.Second},
		{"delta zero", "0", 0},
		{"delta negative", "-3", 0},
		{"http date future", now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second},
		{"http date now", now.Format(http.TimeFormat), 0},
		{"http date past", now.Add(-time.Hour).Format(http.TimeFormat), 0},
		{"rfc850 date", now.Add(30 * time.Second).Format("Monday, 02-Jan-06 15:04:05 MST"), 30 * time.Second},
		{"ansi c date", now.Add(2 * time.Minute).Format(time.ANSIC), 2 * time.Minute},
		{"garbage", "soon", 0},
		{"float seconds", "1.5", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := http.Header{}
			if tc.value != "" {
				h.Set("Retry-After", tc.value)
			}
			if got := parseRetryAfterAt(h, now); got != tc.want {
				t.Fatalf("parseRetryAfterAt(%q) = %v, want %v", tc.value, got, tc.want)
			}
		})
	}
}

// TestRetryAfterHTTPDateRaisesBackoff wires the HTTP-date form through a
// live retry loop: a 503 carrying a date a few ms out must still be
// honored as a delay floor, and the request must eventually succeed.
func TestRetryAfterHTTPDateRaisesBackoff(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			// http.TimeFormat has second granularity, truncating up to a
			// second off the delay: 2s out guarantees at least 1s.
			w.Header().Set("Retry-After", time.Now().Add(2*time.Second).UTC().Format(http.TimeFormat))
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"applications":[]}`)
	}))
	defer ts.Close()
	c, err := New(ts.URL, fastRetry(3))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := c.ListApplications(); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Fatalf("calls = %d, want 2", calls.Load())
	}
	// The date floor must have held the retry back well past the
	// millisecond-scale backoff policy.
	if elapsed := time.Since(start); elapsed < time.Second {
		t.Fatalf("retry fired after %v, before the Retry-After date", elapsed)
	}
}
