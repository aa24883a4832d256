package dmfserver

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"perfknow/internal/dmfclient"
	"perfknow/internal/faults"
	"perfknow/internal/obs"
	"perfknow/internal/perfdmf"
)

// funcInjector adapts a closure to faults.Injector for scripted tests.
type funcInjector struct {
	mu     sync.Mutex
	decide func(method, path string, attempt int) faults.Decision
	counts map[string]int64
}

func (f *funcInjector) Decide(method, path string, attempt int) faults.Decision {
	f.mu.Lock()
	defer f.mu.Unlock()
	d := f.decide(method, path, attempt)
	if d.Kind != faults.None {
		if f.counts == nil {
			f.counts = make(map[string]int64)
		}
		f.counts[d.Kind.String()]++
	}
	return d
}

func (f *funcInjector) Counts() map[string]int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]int64, len(f.counts))
	for k, v := range f.counts {
		out[k] = v
	}
	return out
}

// TestUploadExactlyOnceUnderRetry is the exactly-once acceptance test: the
// server truncates the response to the first upload attempt (after the
// trial is stored), the client retries with the same idempotency key, and
// the server must replay the original acknowledgment instead of storing a
// second trial.
func TestUploadExactlyOnceUnderRetry(t *testing.T) {
	truncated := false
	inj := &funcInjector{decide: func(method, path string, attempt int) faults.Decision {
		if method == "POST" && path == "/api/v1/trials" && !truncated {
			truncated = true
			return faults.Decision{Kind: faults.Truncate, TruncateAfter: 10}
		}
		return faults.Decision{}
	}}
	repo, c := newService(t, Config{FaultInjector: inj},
		dmfclient.WithRetryPolicy(dmfclient.RetryPolicy{
			MaxAttempts: 4,
			BaseDelay:   time.Millisecond,
		}))

	if err := c.SaveContext(context.Background(), stallTrial("app", "exp", "t1")); err != nil {
		t.Fatalf("upload did not converge: %v", err)
	}
	if !truncated {
		t.Fatal("fault never fired; test is vacuous")
	}

	if trials := repo.Trials("app", "exp"); len(trials) != 1 {
		t.Fatalf("repository holds %d trials, want exactly 1: %v", len(trials), trials)
	}
	if st := c.Stats(); st.Retries < 1 {
		t.Fatalf("client reports %d retries, want >= 1", st.Retries)
	}

	snap, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Counters["uploads_stored_total"]; got != 1 {
		t.Errorf("uploads_stored_total = %d, want 1", got)
	}
	if got := snap.Counters["idempotent_replays_total"]; got != 1 {
		t.Errorf("idempotent_replays_total = %d, want 1", got)
	}
	if got := snap.Counters["requests_retried_total"]; got < 1 {
		t.Errorf("requests_retried_total = %d, want >= 1", got)
	}
	if got := snap.Counters[obs.Key("faults_injected_total", "kind", "truncate")]; got != 1 {
		t.Errorf("faults_injected_total{kind=truncate} = %d, want 1 (counters %+v)", got, snap.Counters)
	}
}

// clientRun is everything one chaos client observed: the upload ack, the
// marshaled analyze responses, the diagnosis stdout, and the trial listing.
type clientRun struct {
	upload   string
	stats    string
	topn     string
	diagnose string
	listing  string
}

// runWorkload drives one client through the full upload → analyze →
// diagnose → list cycle for its own trial and returns the serialized
// results for comparison.
func runWorkload(c *dmfclient.Client, trial string) (clientRun, error) {
	var out clientRun
	if err := c.SaveContext(context.Background(), stallTrial("chaos", "exp", trial)); err != nil {
		return out, fmt.Errorf("save: %w", err)
	}
	sum, err := c.GetTrialContext(context.Background(), "chaos", "exp", trial)
	if err != nil {
		return out, fmt.Errorf("get: %w", err)
	}
	b, err := json.Marshal(sum)
	if err != nil {
		return out, err
	}
	out.upload = string(b)

	stats, err := c.AnalyzeContext(context.Background(), AnalyzeRequest{
		App: "chaos", Experiment: "exp", Trial: trial,
		Op: "stats", Metric: perfdmf.TimeMetric,
	})
	if err != nil {
		return out, fmt.Errorf("analyze stats: %w", err)
	}
	if b, err = json.Marshal(stats); err != nil {
		return out, err
	}
	out.stats = string(b)

	topn, err := c.AnalyzeContext(context.Background(), AnalyzeRequest{
		App: "chaos", Experiment: "exp", Trial: trial,
		Op: "topn", Metric: perfdmf.TimeMetric, N: 2,
	})
	if err != nil {
		return out, fmt.Errorf("analyze topn: %w", err)
	}
	if b, err = json.Marshal(topn); err != nil {
		return out, err
	}
	out.topn = string(b)

	diag, err := c.DiagnoseContext(context.Background(), DiagnoseRequest{
		Script: "stalls_per_cycle",
		Args:   []string{"chaos", "exp", trial},
	})
	if err != nil {
		return out, fmt.Errorf("diagnose: %w", err)
	}
	out.diagnose = diag.Stdout

	exps, err := c.ListExperiments("chaos")
	if err != nil {
		return out, fmt.Errorf("list: %w", err)
	}
	if b, err = json.Marshal(exps); err != nil {
		return out, err
	}
	out.listing = string(b)
	return out, nil
}

// TestChaosConvergesByteIdentical is the chaos acceptance test: 8
// concurrent clients drive upload → analyze → diagnose through a server
// with a seeded fault schedule (connection resets, truncation, latency,
// 5xx bursts, slow bodies). Every operation must converge via retries, and
// every result must be byte-identical to the same workload against a
// fault-free server.
func TestChaosConvergesByteIdentical(t *testing.T) {
	const nClients = 8

	run := func(inj faults.Injector) ([nClients]clientRun, *dmfclient.Client) {
		t.Helper()
		// Jobs: nClients so back-pressure shedding (and its 1s Retry-After)
		// never triggers; the chaos here is injected faults, not saturation.
		repo, first := newService(t, Config{Jobs: nClients, FaultInjector: inj},
			dmfclient.WithRetryPolicy(dmfclient.RetryPolicy{
				MaxAttempts: 8,
				BaseDelay:   time.Millisecond,
				MaxDelay:    20 * time.Millisecond,
			}))
		_ = repo

		clients := make([]*dmfclient.Client, nClients)
		clients[0] = first
		base := first.BaseURL()
		for i := 1; i < nClients; i++ {
			c, err := dmfclient.New(base, dmfclient.WithRetryPolicy(dmfclient.RetryPolicy{
				MaxAttempts: 8,
				BaseDelay:   time.Millisecond,
				MaxDelay:    20 * time.Millisecond,
				Seed:        uint64(i),
			}))
			if err != nil {
				t.Fatal(err)
			}
			clients[i] = c
		}

		var results [nClients]clientRun
		errs := make([]error, nClients)
		var wg sync.WaitGroup
		for i := 0; i < nClients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i], errs[i] = runWorkload(clients[i], fmt.Sprintf("t%d", i))
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("client %d failed to converge: %v", i, err)
			}
		}
		return results, first
	}

	chaotic, chaosClient := run(faults.NewSchedule(faults.Options{
		Seed: 20080101, // SC'08, where the source paper appeared
		Rate: 0.4,
	}))
	clean, _ := run(nil)

	for i := 0; i < nClients; i++ {
		if chaotic[i] != clean[i] {
			t.Errorf("client %d results diverge under faults:\nchaos: %+v\nclean: %+v",
				i, chaotic[i], clean[i])
		}
	}

	snap, err := chaosClient.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	var injected int64
	for key, n := range snap.Counters {
		if strings.HasPrefix(key, "faults_injected_total{") {
			injected += n
		}
	}
	if injected == 0 {
		t.Fatal("no faults injected; chaos run was vacuous")
	}
	if got := snap.Counters["uploads_stored_total"]; got != nClients {
		t.Errorf("uploads_stored_total = %d, want %d (exactly one store per client)",
			got, nClients)
	}
	t.Logf("chaos run: %d faults injected, %d retried requests, %d idempotent replays",
		injected, snap.Counters["requests_retried_total"], snap.Counters["idempotent_replays_total"])
}
