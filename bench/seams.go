package bench

import (
	"context"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"perfknow/internal/dmfclient"
	"perfknow/internal/obs"
	"perfknow/internal/perfdmf"
	"perfknow/internal/vfs"
)

// The harness measures layers from outside, at seams the packages already
// export: an http.RoundTripper under dmfclient, a wrapper around the
// server's http.Handler, a vfs.FS under the repository and a wrapper round
// each cluster.Backend. Every seam always counts; it records spans only
// while the tracer is recording, which is during the single-threaded
// replay of a traced run.

// spanHeader carries "traceID-spanID" of the transport span to the handler
// seam. The system under test ignores it.
const spanHeader = "X-Dmfload-Span"

type span struct {
	traceID, id, parentID string
	name                  string
	start                 time.Time
	attrs                 map[string]string
}

// tracer collects harness spans in memory and the always-on seam counters.
type tracer struct {
	recording atomic.Bool
	nextID    atomic.Uint64

	mu    sync.Mutex
	spans []obs.SpanData

	// cur is the op the replay is executing; seams that are handed no
	// context (the list routes) parent under it.
	cur atomic.Pointer[span]
	// backendFor maps a peer host to the cluster.backend span in flight to
	// it, for the same context-less routes. Guarded by mu.
	backendFor map[string]*span
	// handlerFor[node] is the handler span in flight on a daemon; its vfs
	// spans parent under it.
	handlerFor [3]atomic.Pointer[span]

	attempts     atomic.Int64
	reqBytes     atomic.Int64
	respBytes    atomic.Int64
	backendCalls [numKinds]atomic.Int64
}

func newTracer() *tracer { return &tracer{backendFor: make(map[string]*span)} }

func (t *tracer) newID() string { return fmt.Sprintf("%016x", t.nextID.Add(1)) }

// startRoot opens a new trace for one replayed op.
func (t *tracer) startRoot(name string, attrs map[string]string) *span {
	if t == nil || !t.recording.Load() {
		return nil
	}
	id := t.newID()
	return &span{traceID: id + id, id: id, name: name, start: time.Now(), attrs: attrs}
}

func (t *tracer) startChild(parent *span, name string, attrs map[string]string) *span {
	if t == nil || parent == nil || !t.recording.Load() {
		return nil
	}
	return &span{traceID: parent.traceID, id: t.newID(), parentID: parent.id, name: name, start: time.Now(), attrs: attrs}
}

func (t *tracer) end(s *span) { t.endAt(s, time.Now()) }

func (t *tracer) endAt(s *span, at time.Time) {
	if s == nil {
		return
	}
	sd := obs.SpanData{
		TraceID:        s.traceID,
		SpanID:         s.id,
		ParentID:       s.parentID,
		Name:           s.name,
		Service:        "dmfload",
		StartUnixNano:  s.start.UnixNano(),
		DurationMicros: float64(at.Sub(s.start)) / float64(time.Microsecond),
		Attrs:          s.attrs,
	}
	t.mu.Lock()
	t.spans = append(t.spans, sd)
	t.mu.Unlock()
}

// traces groups the recorded spans by trace id, in recording order.
func (t *tracer) traces() []obs.Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := make(map[string]int)
	var out []obs.Trace
	for _, sd := range t.spans {
		i, ok := idx[sd.TraceID]
		if !ok {
			i = len(out)
			idx[sd.TraceID] = i
			out = append(out, obs.Trace{TraceID: sd.TraceID})
		}
		out[i].Spans = append(out[i].Spans, sd)
	}
	return out
}

type spanKey struct{}

func withSpan(ctx context.Context, s *span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

func spanFrom(ctx context.Context) *span {
	s, _ := ctx.Value(spanKey{}).(*span)
	return s
}

// --- dmfclient.WithTransport ------------------------------------------

// timedTransport counts attempts and bytes and records one
// dmfclient.transport span per round trip, from the request leaving the
// client to the last byte of the response body being read.
type timedTransport struct {
	next http.RoundTripper
	tr   *tracer
}

func (tt *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if strings.HasSuffix(req.URL.Path, "/alerts") {
		return tt.next.RoundTrip(req) // the long-lived SSE subscription is not an op
	}
	tt.tr.attempts.Add(1)
	if req.ContentLength > 0 {
		tt.tr.reqBytes.Add(req.ContentLength)
	}
	var sp *span
	if tt.tr.recording.Load() {
		parent := spanFrom(req.Context())
		if parent == nil {
			tt.tr.mu.Lock()
			parent = tt.tr.backendFor[req.URL.Host]
			tt.tr.mu.Unlock()
		}
		if parent == nil {
			parent = tt.tr.cur.Load()
		}
		if sp = tt.tr.startChild(parent, "dmfclient.transport", nil); sp != nil {
			req = req.Clone(req.Context())
			req.Header.Set(spanHeader, sp.traceID+"-"+sp.id)
		}
	}
	resp, err := tt.next.RoundTrip(req)
	if err != nil {
		tt.tr.end(sp)
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, tr: tt.tr, sp: sp}
	return resp, nil
}

type timedBody struct {
	io.ReadCloser
	tr       *tracer
	sp       *span
	lastRead time.Time
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.tr.respBytes.Add(int64(n))
	if b.sp != nil {
		b.lastRead = time.Now()
	}
	return n, err
}

func (b *timedBody) Close() error {
	if b.sp != nil {
		if b.lastRead.IsZero() {
			b.lastRead = time.Now()
		}
		b.tr.endAt(b.sp, b.lastRead)
		b.sp = nil
	}
	return b.ReadCloser.Close()
}

// --- timing(srv.Handler()) --------------------------------------------

// routeClass names the handler a request reaches, for dmfserver.<class>_ms.
func routeClass(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/api/v1/trials":
		return "upload"
	case r.Method == http.MethodGet && p == "/api/v1/trials":
		return "list"
	case r.Method == http.MethodGet && strings.HasPrefix(p, "/api/v1/apps/"):
		return "get"
	case p == "/api/v1/diagnose":
		return "diagnose"
	case p == "/api/v1/analyze":
		return "analyze"
	case strings.HasSuffix(p, "/chunks"):
		return "append"
	case strings.HasSuffix(p, "/seal"):
		return "seal"
	}
	return "other"
}

// timing wraps a daemon's handler: requests that carry the span header get
// a dmfserver.handler span parented under the transport span that sent
// them; anything else (gossip, the SSE stream) passes through.
func (t *tracer) timing(node int, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hdr := r.Header.Get(spanHeader)
		traceID, parentID, ok := strings.Cut(hdr, "-")
		if !ok || !t.recording.Load() {
			next.ServeHTTP(w, r)
			return
		}
		sp := &span{
			traceID: traceID, id: t.newID(), parentID: parentID,
			name: "dmfserver.handler", start: time.Now(),
			attrs: map[string]string{"route": routeClass(r)},
		}
		t.handlerFor[node].Store(sp)
		next.ServeHTTP(w, r)
		t.handlerFor[node].Store(nil)
		t.end(sp)
	})
}

// --- perfdmf.OpenRepositoryFS(dir, countingFS) -------------------------

// countingFS is a vfs.FS with every operation counted and timed. When tr
// is set, operations also become vfs.<op> spans under the node's handler
// span.
type countingFS struct {
	vfs.FS
	tr   *tracer
	node int

	ops       atomic.Int64
	reads     atomic.Int64
	fsyncs    atomic.Int64
	bytesOut  atomic.Int64
	busyNanos atomic.Int64
}

func (c *countingFS) observe(name string, fsyncs int) func() {
	c.ops.Add(1)
	c.fsyncs.Add(int64(fsyncs))
	var sp *span
	if c.tr != nil {
		sp = c.tr.startChild(c.tr.handlerFor[c.node].Load(), "vfs."+name, nil)
	}
	start := time.Now()
	return func() {
		c.busyNanos.Add(int64(time.Since(start)))
		c.tr.end(sp)
	}
}

func (c *countingFS) MkdirAll(path string, perm fs.FileMode) error {
	defer c.observe("mkdirall", 0)()
	return c.FS.MkdirAll(path, perm)
}

func (c *countingFS) ReadFile(path string) ([]byte, error) {
	defer c.observe("readfile", 0)()
	c.reads.Add(1)
	return c.FS.ReadFile(path)
}

func (c *countingFS) WriteFile(path string, data []byte, perm fs.FileMode) error {
	defer c.observe("writefile", 1)()
	c.bytesOut.Add(int64(len(data)))
	return c.FS.WriteFile(path, data, perm)
}

func (c *countingFS) Rename(oldpath, newpath string) error {
	defer c.observe("rename", 0)()
	return c.FS.Rename(oldpath, newpath)
}

func (c *countingFS) Remove(path string) error {
	defer c.observe("remove", 0)()
	return c.FS.Remove(path)
}

func (c *countingFS) ReadDir(path string) ([]fs.DirEntry, error) {
	defer c.observe("readdir", 0)()
	return c.FS.ReadDir(path)
}

func (c *countingFS) Stat(path string) (fs.FileInfo, error) {
	defer c.observe("stat", 0)()
	return c.FS.Stat(path)
}

func (c *countingFS) SyncDir(path string) error {
	defer c.observe("syncdir", 1)()
	return c.FS.SyncDir(path)
}

// --- cluster.New(desc, wrapped backends) ------------------------------

// tracedBackend wraps one peer's client as a cluster.Backend. Embedding
// the client keeps the optional RingFetcher and HintedBackend extensions
// the ShardedStore probes for.
type tracedBackend struct {
	*dmfclient.Client
	host string
	tr   *tracer
}

func (b *tracedBackend) begin(ctx context.Context, kind opKind) (context.Context, func()) {
	b.tr.backendCalls[kind].Add(1)
	parent := spanFrom(ctx)
	if parent == nil {
		parent = b.tr.cur.Load()
	}
	sp := b.tr.startChild(parent, "cluster.backend", map[string]string{"peer": b.host, "op": kind.String()})
	if sp == nil {
		return ctx, func() {}
	}
	b.tr.mu.Lock()
	b.tr.backendFor[b.host] = sp
	b.tr.mu.Unlock()
	return withSpan(ctx, sp), func() {
		b.tr.mu.Lock()
		delete(b.tr.backendFor, b.host)
		b.tr.mu.Unlock()
		b.tr.end(sp)
	}
}

func (b *tracedBackend) SaveContext(ctx context.Context, t *perfdmf.Trial) error {
	ctx, done := b.begin(ctx, opSave)
	defer done()
	return b.Client.SaveContext(ctx, t)
}

func (b *tracedBackend) GetTrialContext(ctx context.Context, app, experiment, trial string) (*perfdmf.Trial, error) {
	ctx, done := b.begin(ctx, opGet)
	defer done()
	return b.Client.GetTrialContext(ctx, app, experiment, trial)
}

func (b *tracedBackend) ListTrials(app, experiment string) ([]string, error) {
	_, done := b.begin(context.Background(), opList)
	defer done()
	return b.Client.ListTrials(app, experiment)
}
