// Package obs is the system's self-observability layer: a stdlib-only
// tracing and metrics substrate threaded through the interpreter, the
// analysis operations, the rule engine, the profile repository, the
// networked client and the perfdmfd daemon.
//
// The design premise mirrors the source paper's: performance knowledge
// should be captured as structured, machine-readable data — including the
// performance of the analysis system itself. A diagnosis run therefore
// produces a trace: a tree of spans covering client requests, HTTP
// transport, server-side handlers, script statements, rule firings,
// analysis operations and repository I/O, stitched across process
// boundaries with Traceparent-style headers. Completed traces are held in
// a bounded ring buffer and can be re-ingested as profiles
// (TraceTrial) so the rules engine can diagnose the tool with its own
// knowledge base.
//
// Tracing is context-driven and zero-configuration at call sites:
//
//	ctx = obs.ContextWithTracer(ctx, tracer)   // once, at the entry point
//	ctx, sp := obs.StartSpan(ctx, "analysis.kmeans", "metric", m)
//	defer sp.End()
//
// When the context carries no tracer, StartSpan returns a nil span whose
// methods are all no-ops, so instrumented code pays one pointer check on
// the cold path and nothing else.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// SpanData is the completed, serializable form of a span — the unit stored
// in traces and served by GET /api/v1/traces. Field names and units are
// part of the versioned telemetry schema; do not rename casually.
type SpanData struct {
	TraceID  string `json:"trace_id"`
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_id,omitempty"`
	Name     string `json:"name"`
	// Service identifies the process that produced the span (e.g.
	// "perfexplorer", "perfdmfd"), so merged cross-process traces stay
	// attributable.
	Service string `json:"service,omitempty"`
	// StartUnixNano is the span's start time (UnixNano).
	StartUnixNano int64 `json:"start_unix_ns"`
	// DurationMicros is the span's wall-clock duration in microseconds —
	// the same unit as the TIME metric in profiles, so traces re-ingest as
	// trials without conversion.
	DurationMicros float64           `json:"duration_us"`
	Attrs          map[string]string `json:"attrs,omitempty"`
	Error          string            `json:"error,omitempty"`
}

// Trace is one completed trace: every recorded span sharing a trace id.
type Trace struct {
	TraceID string     `json:"trace_id"`
	Spans   []SpanData `json:"spans"`
}

// TraceSummary is the listing form of a trace (GET /api/v1/traces).
type TraceSummary struct {
	TraceID        string  `json:"trace_id"`
	Root           string  `json:"root"`
	Spans          int     `json:"spans"`
	Errors         int     `json:"errors"`
	StartUnixNano  int64   `json:"start_unix_ns"`
	DurationMicros float64 `json:"duration_us"`
}

// Defaults for the trace ring buffer.
const (
	DefaultMaxTraces        = 128
	DefaultMaxSpansPerTrace = 512
)

// Tracer collects spans into completed traces. It is safe for concurrent
// use. A trace is finalized when its locally rooted span (the first span
// of the trace started in this process without a local parent) ends; the
// completed trace then becomes visible to Traces, Trace and Summaries.
// Completed traces live in a bounded ring buffer — the oldest trace is
// evicted once MaxTraces is exceeded — and each trace holds at most
// MaxSpans spans (later spans are counted but dropped).
type Tracer struct {
	// Service stamps every span produced by this tracer; set it once,
	// before spans are started.
	Service string

	mu      sync.Mutex
	active  map[string]*traceBuf
	order   []string // active trace ids, oldest first
	done    []*Trace // completed traces, oldest first
	dropped map[string]int

	maxTraces int
	maxSpans  int
}

type traceBuf struct {
	spans []SpanData
	drops int
}

// NewTracer returns a tracer with the default ring-buffer bounds.
func NewTracer() *Tracer {
	return &Tracer{
		active:    make(map[string]*traceBuf),
		dropped:   make(map[string]int),
		maxTraces: DefaultMaxTraces,
		maxSpans:  DefaultMaxSpansPerTrace,
	}
}

// SetLimits overrides the ring-buffer bounds (values <= 0 keep the
// defaults). Call before tracing starts.
func (t *Tracer) SetLimits(maxTraces, maxSpansPerTrace int) {
	if maxTraces > 0 {
		t.maxTraces = maxTraces
	}
	if maxSpansPerTrace > 0 {
		t.maxSpans = maxSpansPerTrace
	}
}

// record buffers one finished span and finalizes the trace when the local
// root ends.
func (t *Tracer) record(sd SpanData, localRoot bool) {
	t.mu.Lock()
	buf := t.active[sd.TraceID]
	if buf == nil {
		buf = &traceBuf{}
		t.active[sd.TraceID] = buf
		t.order = append(t.order, sd.TraceID)
		// Bound the number of in-flight trace buckets: evict the oldest
		// unfinalized trace wholesale rather than grow without limit.
		if len(t.order) > t.maxTraces {
			evict := t.order[0]
			t.order = t.order[1:]
			delete(t.active, evict)
		}
	}
	if len(buf.spans) < t.maxSpans {
		buf.spans = append(buf.spans, sd)
	} else {
		buf.drops++
	}
	if localRoot {
		t.finalizeLocked(sd.TraceID)
	}
	t.mu.Unlock()
}

// finalizeLocked moves the active bucket for id into the completed ring,
// merging with an already completed trace of the same id (a later request
// in the same distributed trace).
func (t *Tracer) finalizeLocked(id string) {
	buf := t.active[id]
	if buf == nil {
		return
	}
	delete(t.active, id)
	for i, o := range t.order {
		if o == id {
			t.order = append(t.order[:i], t.order[i+1:]...)
			break
		}
	}
	if buf.drops > 0 {
		t.dropped[id] += buf.drops
	}
	for _, tr := range t.done {
		if tr.TraceID == id {
			tr.Spans = append(tr.Spans, buf.spans...)
			return
		}
	}
	t.done = append(t.done, &Trace{TraceID: id, Spans: buf.spans})
	if len(t.done) > t.maxTraces {
		evicted := t.done[0].TraceID
		t.done = t.done[1:]
		delete(t.dropped, evicted)
	}
}

// Traces returns the completed traces, oldest first. The result is a deep
// enough copy to be used freely.
func (t *Tracer) Traces() []Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Trace, len(t.done))
	for i, tr := range t.done {
		out[i] = Trace{TraceID: tr.TraceID, Spans: append([]SpanData(nil), tr.Spans...)}
	}
	return out
}

// Trace returns one completed trace by id, or false when the id is unknown
// (or still in flight).
func (t *Tracer) Trace(id string) (Trace, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, tr := range t.done {
		if tr.TraceID == id {
			return Trace{TraceID: tr.TraceID, Spans: append([]SpanData(nil), tr.Spans...)}, true
		}
	}
	return Trace{}, false
}

// Merge folds spans produced elsewhere (typically fetched from a remote
// server) into the completed trace with the same id, creating it when
// absent. Spans beyond the per-trace cap are dropped.
func (t *Tracer) Merge(tr Trace) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, d := range t.done {
		if d.TraceID == tr.TraceID {
			room := t.maxSpans - len(d.Spans)
			if room < 0 {
				room = 0
			}
			if len(tr.Spans) < room {
				room = len(tr.Spans)
			}
			d.Spans = append(d.Spans, tr.Spans[:room]...)
			return
		}
	}
	t.done = append(t.done, &Trace{TraceID: tr.TraceID, Spans: append([]SpanData(nil), tr.Spans...)})
	if len(t.done) > t.maxTraces {
		t.done = t.done[1:]
	}
}

// Len reports the number of completed traces buffered.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.done)
}

// Summaries lists the completed traces newest first.
func (t *Tracer) Summaries() []TraceSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceSummary, 0, len(t.done))
	for i := len(t.done) - 1; i >= 0; i-- {
		out = append(out, summarize(t.done[i]))
	}
	return out
}

func summarize(tr *Trace) TraceSummary {
	s := TraceSummary{TraceID: tr.TraceID, Spans: len(tr.Spans)}
	var rootEnd float64
	for i := range tr.Spans {
		sp := &tr.Spans[i]
		if sp.Error != "" {
			s.Errors++
		}
		if s.StartUnixNano == 0 || sp.StartUnixNano < s.StartUnixNano {
			s.StartUnixNano = sp.StartUnixNano
		}
		if sp.ParentID == "" && (s.Root == "" || sp.DurationMicros > rootEnd) {
			s.Root = sp.Name
			rootEnd = sp.DurationMicros
		}
	}
	// Duration: from the earliest start to the latest span end.
	for i := range tr.Spans {
		sp := &tr.Spans[i]
		end := float64(sp.StartUnixNano-s.StartUnixNano)/1e3 + sp.DurationMicros
		if end > s.DurationMicros {
			s.DurationMicros = end
		}
	}
	return s
}

// --- live spans --------------------------------------------------------

// Span is an in-flight operation. The zero of *Span (nil) is a valid
// no-op span: every method may be called on it safely, so call sites do
// not guard on whether tracing is enabled.
type Span struct {
	tracer    *Tracer
	data      SpanData
	start     time.Time
	localRoot bool

	mu    sync.Mutex
	ended bool
}

// TraceID returns the span's trace id ("" on a nil span).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.data.TraceID
}

// SpanID returns the span's id ("" on a nil span).
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return s.data.SpanID
}

// SetAttr records a key/value attribute on the span.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.data.Attrs == nil {
		s.data.Attrs = make(map[string]string)
	}
	s.data.Attrs[k] = v
	s.mu.Unlock()
}

// SetError marks the span failed. A nil err is ignored, so callers can
// unconditionally write `sp.SetError(err); sp.End()`.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.data.Error = err.Error()
	s.mu.Unlock()
}

// End completes the span and records it with the tracer. Calling End more
// than once is safe; only the first call records.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.data.DurationMicros = float64(time.Since(s.start).Nanoseconds()) / 1e3
	sd := s.data
	s.mu.Unlock()
	s.tracer.record(sd, s.localRoot)
}

// --- context plumbing --------------------------------------------------

type tracerKey struct{}
type spanKey struct{}
type remoteKey struct{}

// remoteParent is an extracted Traceparent: the continuation point for a
// trace started in another process.
type remoteParent struct{ traceID, spanID string }

// ContextWithTracer arranges for StartSpan calls beneath ctx to record
// into tr. This is the single opt-in point for tracing.
func ContextWithTracer(ctx context.Context, tr *Tracer) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey{}, tr)
}

// TracerFrom returns the tracer carried by ctx, or nil.
func TracerFrom(ctx context.Context) *Tracer {
	if ctx == nil {
		return nil
	}
	tr, _ := ctx.Value(tracerKey{}).(*Tracer)
	return tr
}

// ContextWithRemoteParent records an extracted remote (traceID, spanID)
// pair so the next StartSpan continues the caller's trace instead of
// opening a new one. The span started under a remote parent is still the
// local root: its End finalizes the locally collected part of the trace.
func ContextWithRemoteParent(ctx context.Context, traceID, spanID string) context.Context {
	if traceID == "" {
		return ctx
	}
	return context.WithValue(ctx, remoteKey{}, remoteParent{traceID, spanID})
}

// SpanFromContext returns the innermost span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// StartSpan opens a span named name beneath the span carried by ctx (or as
// a new trace root when there is none), recording into the context's
// tracer. attrs are alternating key/value pairs. When ctx carries no
// tracer the returned span is nil and every method on it is a no-op.
func StartSpan(ctx context.Context, name string, attrs ...string) (context.Context, *Span) {
	if ctx == nil {
		ctx = context.Background()
	}
	tr := TracerFrom(ctx)
	if tr == nil {
		return ctx, nil
	}
	sp := &Span{
		tracer: tr,
		start:  time.Now(),
		data: SpanData{
			SpanID:  newSpanID(),
			Name:    name,
			Service: tr.Service,
		},
	}
	sp.data.StartUnixNano = sp.start.UnixNano()
	if parent := SpanFromContext(ctx); parent != nil {
		sp.data.TraceID = parent.data.TraceID
		sp.data.ParentID = parent.data.SpanID
	} else if rp, ok := ctx.Value(remoteKey{}).(remoteParent); ok {
		sp.data.TraceID = rp.traceID
		sp.data.ParentID = rp.spanID
		sp.localRoot = true
	} else {
		sp.data.TraceID = newTraceID()
		sp.localRoot = true
	}
	for i := 0; i+1 < len(attrs); i += 2 {
		if sp.data.Attrs == nil {
			sp.data.Attrs = make(map[string]string, len(attrs)/2)
		}
		sp.data.Attrs[attrs[i]] = attrs[i+1]
	}
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// newTraceID returns 16 random bytes hex-encoded (W3C trace-id width).
func newTraceID() string { return randHex(16) }

// newSpanID returns 8 random bytes hex-encoded (W3C parent-id width).
func newSpanID() string { return randHex(8) }

func randHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		// crypto/rand failing is unrecoverable for the process anyway;
		// degrade to a constant rather than panic inside instrumentation.
		for i := range b {
			b[i] = byte(i + 1)
		}
	}
	return hex.EncodeToString(b)
}
