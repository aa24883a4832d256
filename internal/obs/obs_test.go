package obs

import (
	"context"
	"errors"
	"net/http"
	"testing"
)

func TestSpanTreeAndFinalize(t *testing.T) {
	tr := NewTracer()
	tr.Service = "test"
	ctx := ContextWithTracer(context.Background(), tr)

	ctx, root := StartSpan(ctx, "root", "kind", "cli")
	cctx, child := StartSpan(ctx, "child")
	_, grand := StartSpan(cctx, "grandchild")
	grand.SetError(errors.New("boom"))
	grand.End()
	child.End()

	if tr.Len() != 0 {
		t.Fatalf("trace finalized before root ended: %d", tr.Len())
	}
	root.End()
	if tr.Len() != 1 {
		t.Fatalf("want 1 completed trace, got %d", tr.Len())
	}

	traces := tr.Traces()
	spans := traces[0].Spans
	if len(spans) != 3 {
		t.Fatalf("want 3 spans, got %d", len(spans))
	}
	byName := map[string]SpanData{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["root"].ParentID != "" {
		t.Errorf("root should have no parent, got %q", byName["root"].ParentID)
	}
	if byName["child"].ParentID != byName["root"].SpanID {
		t.Errorf("child parent = %q, want root %q", byName["child"].ParentID, byName["root"].SpanID)
	}
	if byName["grandchild"].ParentID != byName["child"].SpanID {
		t.Errorf("grandchild parent = %q, want child %q", byName["grandchild"].ParentID, byName["child"].SpanID)
	}
	for _, s := range spans {
		if s.TraceID != root.TraceID() {
			t.Errorf("span %s trace id %q != root %q", s.Name, s.TraceID, root.TraceID())
		}
		if s.Service != "test" {
			t.Errorf("span %s service = %q, want test", s.Name, s.Service)
		}
	}
	if byName["grandchild"].Error != "boom" {
		t.Errorf("grandchild error = %q", byName["grandchild"].Error)
	}
	if byName["root"].Attrs["kind"] != "cli" {
		t.Errorf("root attrs = %v", byName["root"].Attrs)
	}
}

func TestNilSpanIsSafe(t *testing.T) {
	ctx, sp := StartSpan(context.Background(), "untraced")
	if sp != nil {
		t.Fatal("expected nil span without a tracer")
	}
	sp.SetAttr("k", "v")
	sp.SetError(errors.New("x"))
	sp.End()
	if sp.TraceID() != "" || sp.SpanID() != "" {
		t.Error("nil span ids should be empty")
	}
	h := http.Header{}
	Inject(h, sp)
	if h.Get(HeaderTraceparent) != "" {
		t.Error("nil span must not inject")
	}
	if got := SpanFromContext(ctx); got != nil {
		t.Error("untraced ctx should carry no span")
	}
}

func TestRemoteParentContinuesTrace(t *testing.T) {
	tr := NewTracer()
	ctx := ContextWithTracer(context.Background(), tr)
	ctx = ContextWithRemoteParent(ctx, "0123456789abcdef0123456789abcdef", "0123456789abcdef")
	ctx, sp := StartSpan(ctx, "server")
	_, inner := StartSpan(ctx, "repo.get")
	inner.End()
	sp.End()

	got, ok := tr.Trace("0123456789abcdef0123456789abcdef")
	if !ok {
		t.Fatal("trace under remote id not finalized")
	}
	var server SpanData
	for _, s := range got.Spans {
		if s.Name == "server" {
			server = s
		}
	}
	if server.ParentID != "0123456789abcdef" {
		t.Errorf("server parent = %q, want remote span id", server.ParentID)
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tr := NewTracer()
	ctx := ContextWithTracer(context.Background(), tr)
	_, sp := StartSpan(ctx, "client")
	h := http.Header{}
	Inject(h, sp)
	traceID, spanID, ok := Extract(h)
	if !ok {
		t.Fatalf("extract failed on %q", h.Get(HeaderTraceparent))
	}
	if traceID != sp.TraceID() || spanID != sp.SpanID() {
		t.Errorf("round trip (%q,%q) != (%q,%q)", traceID, spanID, sp.TraceID(), sp.SpanID())
	}
	sp.End()
}

func TestParseTraceparentRejectsGarbage(t *testing.T) {
	bad := []string{
		"",
		"00-short-0123456789abcdef-01",
		"99-0123456789abcdef0123456789abcdef-0123456789abcdef-01",
		"00-0123456789abcdef0123456789abcdeg-0123456789abcdef-01", // non-hex
		"00-00000000000000000000000000000000-0123456789abcdef-01", // all-zero trace
		"00-0123456789abcdef0123456789abcdef-0123456789abcdef",    // 3 parts
	}
	for _, v := range bad {
		if _, _, ok := ParseTraceparent(v); ok {
			t.Errorf("accepted malformed traceparent %q", v)
		}
	}
}

func TestRingBufferBounds(t *testing.T) {
	tr := NewTracer()
	tr.SetLimits(3, 2)
	ctx := ContextWithTracer(context.Background(), tr)
	for i := 0; i < 5; i++ {
		c, root := StartSpan(ctx, "root")
		for j := 0; j < 4; j++ {
			_, sp := StartSpan(c, "child")
			sp.End()
		}
		root.End()
	}
	if got := tr.Len(); got != 3 {
		t.Fatalf("ring kept %d traces, want 3", got)
	}
	for _, trc := range tr.Traces() {
		if len(trc.Spans) > 2 {
			t.Errorf("trace %s holds %d spans, cap is 2", trc.TraceID, len(trc.Spans))
		}
	}
}

func TestMergeRemoteSpans(t *testing.T) {
	tr := NewTracer()
	ctx := ContextWithTracer(context.Background(), tr)
	_, sp := StartSpan(ctx, "local")
	id := sp.TraceID()
	sp.End()

	tr.Merge(Trace{TraceID: id, Spans: []SpanData{{TraceID: id, SpanID: "aaaa", Name: "remote"}}})
	got, ok := tr.Trace(id)
	if !ok || len(got.Spans) != 2 {
		t.Fatalf("merge: got ok=%v spans=%d, want 2", ok, len(got.Spans))
	}
}

func TestSummaries(t *testing.T) {
	tr := NewTracer()
	ctx := ContextWithTracer(context.Background(), tr)
	c, root := StartSpan(ctx, "run")
	_, bad := StartSpan(c, "step")
	bad.SetError(errors.New("x"))
	bad.End()
	root.End()

	sums := tr.Summaries()
	if len(sums) != 1 {
		t.Fatalf("want 1 summary, got %d", len(sums))
	}
	s := sums[0]
	if s.Root != "run" || s.Spans != 2 || s.Errors != 1 {
		t.Errorf("summary = %+v", s)
	}
	if s.StartUnixNano == 0 || s.DurationMicros <= 0 {
		t.Errorf("summary timing = %+v", s)
	}
}
