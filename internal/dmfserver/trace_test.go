package dmfserver

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"perfknow/internal/dmfclient"
	"perfknow/internal/faults"
	"perfknow/internal/obs"
	"perfknow/internal/perfdmf"
)

// tracedService builds a service whose server tracer is reachable, plus a
// traced client.
func tracedService(t *testing.T, inj faults.Injector) (*Server, *dmfclient.Client, *obs.Tracer) {
	t.Helper()
	repo, err := perfdmf.OpenRepository(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Repo:          repo,
		FaultInjector: inj,
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	clientTracer := obs.NewTracer()
	clientTracer.Service = "test-client"
	c, err := dmfclient.New(ts.URL,
		dmfclient.WithTracer(clientTracer),
		dmfclient.WithRetryPolicy(dmfclient.RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	return srv, c, clientTracer
}

// serverTrace polls for the server-side fragment of a trace: the server
// finalizes a request's spans just after writing its response, so the test
// may observe the response before the spans land.
func serverTrace(t *testing.T, srv *Server, id string, wantSpans int) obs.Trace {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		tr, ok := srv.Tracer().Trace(id)
		if ok && len(tr.Spans) >= wantSpans {
			return tr
		}
		if time.Now().After(deadline) {
			t.Fatalf("server trace %s did not appear with %d spans (have %v, %d)", id, wantSpans, ok, len(tr.Spans))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTracePropagationThroughRetry is the distributed-tracing acceptance
// test: a fault forces the client to retry, and the merged client+server
// trace must form ONE connected tree in which each retry attempt is a
// distinct sibling span and the server's handler spans parent under the
// exact attempt that reached them.
func TestTracePropagationThroughRetry(t *testing.T) {
	// A 5xx burst (not truncation): truncated responses to idempotent GETs
	// can be replayed transparently inside net/http's transport, which
	// would hide the retry from the client's retry loop — and from the
	// trace. A 503 must be retried by the client itself.
	const trialPath = "/api/v1/apps/app/experiments/exp/trials/t1"
	faulted := false
	inj := &funcInjector{decide: func(method, path string, attempt int) faults.Decision {
		if method == "GET" && path == trialPath && !faulted {
			faulted = true
			return faults.Decision{Kind: faults.ServerError, Status: http.StatusServiceUnavailable}
		}
		return faults.Decision{}
	}}
	srv, c, clientTracer := tracedService(t, inj)

	if err := c.SaveContext(context.Background(), stallTrial("app", "exp", "t1")); err != nil {
		t.Fatal(err)
	}

	ctx, root := obs.StartSpan(obs.ContextWithTracer(context.Background(), clientTracer), "test.root")
	if _, err := c.GetTrialContext(ctx, "app", "exp", "t1"); err != nil {
		t.Fatalf("get did not converge: %v", err)
	}
	root.End()
	if !faulted {
		t.Fatal("fault never fired; test is vacuous")
	}

	id := root.TraceID()
	local, ok := clientTracer.Trace(id)
	if !ok {
		t.Fatalf("client trace %s not finalized", id)
	}

	// Two trial-GET attempts — the faulted one and the retry — both
	// children of the root, i.e. siblings of each other.
	var attempts []obs.SpanData
	for _, sp := range local.Spans {
		if sp.Name == "dmfclient GET "+trialPath {
			attempts = append(attempts, sp)
		}
	}
	if len(attempts) != 2 {
		t.Fatalf("attempt spans = %d, want 2 (spans %+v)", len(attempts), local.Spans)
	}
	for _, a := range attempts {
		if a.ParentID != root.SpanID() {
			t.Fatalf("attempt span %s parent = %s, want root %s", a.SpanID, a.ParentID, root.SpanID())
		}
	}
	if attempts[0].Attrs["attempt"] == attempts[1].Attrs["attempt"] {
		t.Fatalf("retry attempts not distinct: %+v", attempts)
	}

	// The server saw both attempts under the same trace id; each handler
	// span's parent must be one of the client attempt spans.
	remote := serverTrace(t, srv, id, 2)
	attemptIDs := map[string]bool{attempts[0].SpanID: true, attempts[1].SpanID: true}
	handlers := 0
	for _, sp := range remote.Spans {
		if sp.Name != "dmfserver GET /api/v1/apps/{app}/experiments/{exp}/trials/{trial}" {
			continue
		}
		handlers++
		if !attemptIDs[sp.ParentID] {
			t.Fatalf("server span %s parent %s is not a client attempt span", sp.SpanID, sp.ParentID)
		}
	}
	if handlers != 2 {
		t.Fatalf("server handler spans = %d, want 2 (one per attempt)", handlers)
	}

	// Merged, the whole thing is one connected tree rooted at test.root:
	// every span's parent is either present or the remote-side root link.
	clientTracer.Merge(remote)
	merged, _ := clientTracer.Trace(id)
	ids := make(map[string]bool, len(merged.Spans))
	for _, sp := range merged.Spans {
		ids[sp.SpanID] = true
	}
	for _, sp := range merged.Spans {
		if sp.SpanID == root.SpanID() {
			if sp.ParentID != "" {
				t.Fatalf("root has parent %s", sp.ParentID)
			}
			continue
		}
		if !ids[sp.ParentID] {
			t.Fatalf("span %q (%s) parent %s missing from merged trace — tree is disconnected",
				sp.Name, sp.SpanID, sp.ParentID)
		}
	}
	// The server-side tree includes repository I/O under the handler.
	foundRepo := false
	for _, sp := range merged.Spans {
		if sp.Name == "perfdmf.get_trial" {
			foundRepo = true
		}
	}
	if !foundRepo {
		t.Fatal("merged trace is missing the repository I/O span")
	}
}

// TestTracesEndpoint covers the trace query API: list, fetch by id, and the
// not-found sentinel.
func TestTracesEndpoint(t *testing.T) {
	_, c, clientTracer := tracedService(t, nil)

	if err := c.SaveContext(context.Background(), stallTrial("app", "exp", "t1")); err != nil {
		t.Fatal(err)
	}
	ctx, root := obs.StartSpan(obs.ContextWithTracer(context.Background(), clientTracer), "test.root")
	if _, err := c.GetTrialContext(ctx, "app", "exp", "t1"); err != nil {
		t.Fatal(err)
	}
	root.End()

	deadline := time.Now().Add(2 * time.Second)
	for {
		sums, err := c.Traces()
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, s := range sums {
			if s.TraceID == root.TraceID() && s.Spans > 0 {
				found = true
			}
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never listed: %+v", root.TraceID(), sums)
		}
		time.Sleep(5 * time.Millisecond)
	}

	tr, err := c.TraceContext(context.Background(), root.TraceID())
	if err != nil {
		t.Fatal(err)
	}
	if tr.TraceID != root.TraceID() || len(tr.Spans) == 0 {
		t.Fatalf("trace fetch = %+v", tr)
	}
	if _, err := c.TraceContext(context.Background(), "00000000000000000000000000000000"); !errors.Is(err, perfdmf.ErrNotFound) {
		t.Fatalf("unknown trace id error = %v, want ErrNotFound", err)
	}
}

// TestMetricsDeprecatedAlias: the deprecated /metrics alias is gone (404);
// the typed schema is served on /api/v1/metrics only, not marked deprecated.
func TestMetricsDeprecatedAlias(t *testing.T) {
	_, c := newService(t, Config{})
	resp, err := http.Get(c.BaseURL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("retired /metrics status = %d, want 404", resp.StatusCode)
	}
	resp2, err := http.Get(c.BaseURL() + "/api/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if want := `"schema_version"`; resp2.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
		t.Fatalf("/api/v1/metrics: HTTP %d, body lacks %s: %s", resp2.StatusCode, want, body)
	}
	if resp2.Header.Get("Deprecation") != "" {
		t.Fatal("/api/v1/metrics must not be marked deprecated")
	}
}
