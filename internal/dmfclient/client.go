// Package dmfclient is the Go client for the perfdmfd profile service
// (internal/dmfserver): it speaks the perfdmf.Store API over HTTP —
// JSON for requests and listings, the repository's own encoded form
// (dmfwire.TrialContentType) for trial bodies — so that PerfExplorer
// sessions and command-line tools can run against a remote repository
// exactly as they do against a local one.
//
// Client implements perfdmf.Store, so it drops into core.NewSession and
// every other Store consumer unchanged:
//
//	c, _ := dmfclient.New("http://localhost:7360")
//	s := core.NewSession(c)          // scripts now read remote trials
//
// The client tolerates an imperfect transport. Safely repeatable requests
// — GETs, DELETEs, the read-only analyze/diagnose POSTs, and uploads
// (which carry a client-generated idempotency key the server deduplicates)
// — are retried with exponential backoff and deterministic jitter on
// transport errors, truncated responses, 429 and 5xx, honoring Retry-After
// and the request context's deadline. See RetryPolicy; Stats reports the
// retry activity.
//
// The listings (ListApplications, ListExperiments, ListTrials) return the
// transport error, so a caller can tell an empty repository from an
// unreachable one.
//
// The client is observable end to end: every HTTP attempt runs under an
// obs span (retries appear as sibling spans) whose context is injected
// into the request as a Traceparent header, so a traced perfexplorer run
// against a perfdmfd server yields one connected trace spanning both
// processes. Stats and the registry installed with WithRegistry expose
// attempt/retry counters.
package dmfclient

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"perfknow/internal/dmfwire"
	"perfknow/internal/faults"
	"perfknow/internal/obs"
	"perfknow/internal/perfdmf"
)

// Client speaks the perfdmfd HTTP/JSON protocol.
type Client struct {
	base  *url.URL
	http  *http.Client
	retry RetryPolicy

	// tracer receives request spans when the caller's context carries no
	// tracer of its own.
	tracer *obs.Tracer
	// reg holds the client's counters; private by default, shared when
	// installed with WithRegistry.
	reg      *obs.Registry
	attempts *obs.Counter
	retries  *obs.Counter

	// clientID and seq mint idempotency keys for uploads: unique per
	// logical upload, stable across its retries.
	clientID string
	seq      atomic.Uint64
}

// Option customizes a Client.
type Option func(*Client)

// WithTimeout sets the per-request timeout (default 60s). With retries
// enabled this bounds each attempt; bound the whole operation with a
// deadline on the call's context.
func WithTimeout(d time.Duration) Option {
	return func(c *Client) { c.http.Timeout = d }
}

// WithTransport installs an http.RoundTripper on the underlying client —
// e.g. a faults.RoundTripper for chaos testing — in place of the default
// transport New builds.
func WithTransport(rt http.RoundTripper) Option {
	return func(c *Client) { c.http.Transport = rt }
}

// WithTracer installs the tracer used when a call's context does not carry
// one: every HTTP attempt records a span (retries as siblings).
func WithTracer(tr *obs.Tracer) Option {
	return func(c *Client) { c.tracer = tr }
}

// WithRegistry shares a metrics registry with the client, so its
// `client_http_attempts_total` / `client_http_retries_total` counters
// appear alongside the embedder's metrics. Without it the client keeps a
// private registry, which Stats reads either way.
func WithRegistry(reg *obs.Registry) Option {
	return func(c *Client) { c.reg = reg }
}

// New returns a client for the perfdmfd server at baseURL
// (e.g. "http://localhost:7360").
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("dmfclient: parse URL: %w", err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("dmfclient: URL %q must include scheme and host", baseURL)
	}
	var id [8]byte
	if _, err := rand.Read(id[:]); err != nil {
		return nil, fmt.Errorf("dmfclient: client id: %w", err)
	}
	c := &Client{
		base:     u,
		http:     &http.Client{Timeout: 60 * time.Second, Transport: newTransport()},
		retry:    DefaultRetryPolicy(),
		clientID: hex.EncodeToString(id[:]),
	}
	for _, o := range opts {
		o(c)
	}
	if c.reg == nil {
		c.reg = obs.NewRegistry()
	}
	c.attempts = c.reg.Counter("client_http_attempts_total")
	c.retries = c.reg.Counter("client_http_retries_total")
	return c, nil
}

// idleConnsPerHost is how many idle connections the default transport
// keeps to the one daemon a Client talks to. net/http's default of 2 makes
// every burst of more than two concurrent callers (a cluster fan-out, a
// parallel study) dial — and then close — a fresh connection per extra
// caller.
const idleConnsPerHost = 32

// newTransport clones http.DefaultTransport (proxy, dial and TLS settings
// stay the library's) with the per-host idle pool raised.
func newTransport() http.RoundTripper {
	dt, ok := http.DefaultTransport.(*http.Transport)
	if !ok {
		return http.DefaultTransport // replaced by the embedding process; respect it
	}
	tr := dt.Clone()
	tr.MaxIdleConnsPerHost = idleConnsPerHost
	return tr
}

var _ perfdmf.Store = (*Client)(nil)

// BaseURL reports the server address this client talks to.
func (c *Client) BaseURL() string { return c.base.String() }

// traceCtx gives the call a tracer: the context's own when present, else
// the client's (from WithTracer), else none (spans no-op).
func (c *Client) traceCtx(ctx context.Context) context.Context {
	if obs.TracerFrom(ctx) == nil && c.tracer != nil {
		ctx = obs.ContextWithTracer(ctx, c.tracer)
	}
	return ctx
}

// --- transport --------------------------------------------------------

// endpoint joins an escaped request path onto the base URL. The path may
// contain percent-escaped segments (resource routes escape each name with
// url.PathEscape, so names containing '/' round-trip); RawPath is set so
// url.String preserves the given escaping instead of double-encoding it.
func (c *Client) endpoint(path string, query url.Values) string {
	u := *c.base
	basePath := strings.TrimSuffix(u.Path, "/")
	baseRaw := strings.TrimSuffix(u.EscapedPath(), "/")
	unescaped, err := url.PathUnescape(path)
	if err != nil {
		unescaped = path
	}
	u.Path = basePath + unescaped
	u.RawPath = baseRaw + path
	u.RawQuery = query.Encode()
	return u.String()
}

// request is one call of a dmfwire route.
type request struct {
	route dmfwire.Route
	// args fill the route's wildcards, in order (dmfwire.Route.Path).
	args  []string
	query url.Values
	// body is sent as it is; in, when set instead, is sent JSON-encoded.
	body []byte
	in   any
	// contentType overrides the body media type (default application/json)
	// for the checksummed wire payloads (ring, membership, encoded trial).
	contentType string
	// accept, when set, is sent as the Accept header.
	accept string
	// hintFor, when set, is sent as the Dmf-Hint-For header: "this write
	// belongs to that peer too — keep a durable hint and replay it there".
	hintFor string
	// idemKey is minted by doCtx for a dmfwire.Keyed route and sent as the
	// Idempotency-Key header on every attempt.
	idemKey string
}

// doCtx issues req and decodes the response into out (skipped when out is
// nil). It is the retry loop: a route's dmfwire.Retry class decides whether
// a failed attempt may be repeated, up to RetryPolicy.MaxAttempts attempts,
// backing off between them with deterministic jitter, honoring Retry-After,
// and never sleeping past ctx's deadline — when the next backoff cannot fit
// it gives up immediately with an error wrapping context.DeadlineExceeded.
func (c *Client) doCtx(ctx context.Context, req request, out any) error {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx = c.traceCtx(ctx)
	if req.in != nil {
		data, err := json.Marshal(req.in)
		if err != nil {
			return fmt.Errorf("dmfclient: encode request: %w", err)
		}
		req.body = data
	}
	method, path := req.route.Method, req.route.Path(req.args...)
	attempts := c.retry.MaxAttempts
	if attempts < 1 || req.route.Retry == dmfwire.Once {
		attempts = 1
	}
	if req.route.Retry == dmfwire.Keyed {
		req.idemKey = c.nextIdempotencyKey()
	}
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			c.retries.Inc()
		}
		c.attempts.Inc()
		err, retryable, retryAfter := c.attempt(ctx, req, path, attempt, out)
		if err == nil {
			return nil
		}
		if !retryable || attempt+1 >= attempts {
			return err
		}
		delay := c.retry.backoff(method, path, attempt, retryAfter)
		if dl, ok := ctx.Deadline(); ok && time.Until(dl) < delay {
			return fmt.Errorf("dmfclient: %s %s: giving up after %d attempt(s), next retry would pass the deadline: %w (last error: %w)",
				method, path, attempt+1, context.DeadlineExceeded, err)
		}
		if serr := sleepCtx(ctx, delay); serr != nil {
			return fmt.Errorf("dmfclient: %s %s: %w after %d attempt(s) (last error: %w)",
				method, path, serr, attempt+1, err)
		}
	}
}

// attempt issues one HTTP attempt under its own span, reporting whether
// its failure may be retried and any server-requested Retry-After delay.
// One span per attempt — not per logical request — is what makes retries
// visible as sibling spans in the trace; the attempt span's context is
// injected as the Traceparent, so the server's spans parent under the
// exact attempt that reached it.
func (c *Client) attempt(ctx context.Context, r request, path string, attempt int, out any) (err error, retryable bool, retryAfter time.Duration) {
	method := r.route.Method
	_, sp := obs.StartSpan(ctx, "dmfclient "+method+" "+path,
		"attempt", strconv.Itoa(attempt))
	defer func() {
		sp.SetError(err)
		sp.End()
	}()
	var rd io.Reader
	if r.body != nil {
		rd = bytes.NewReader(r.body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.endpoint(path, r.query), rd)
	if err != nil {
		return fmt.Errorf("dmfclient: build request: %w", err), false, 0
	}
	if r.body != nil {
		ct := r.contentType
		if ct == "" {
			ct = "application/json"
		}
		req.Header.Set("Content-Type", ct)
	}
	if r.accept != "" {
		req.Header.Set("Accept", r.accept)
	}
	if r.hintFor != "" {
		req.Header.Set(dmfwire.HeaderHintFor, r.hintFor)
	}
	if r.idemKey != "" {
		req.Header.Set(dmfwire.HeaderIdempotencyKey, r.idemKey)
	}
	req.Header.Set(faults.HeaderRetryAttempt, strconv.Itoa(attempt))
	obs.Inject(req.Header, sp)
	resp, err := c.http.Do(req)
	if err != nil {
		// Transport failures (refused, reset, truncated headers) are
		// retryable unless the caller's context is the reason.
		return fmt.Errorf("dmfclient: %s %s: %w", method, path, err), ctx.Err() == nil, 0
	}
	defer resp.Body.Close()
	sp.SetAttr("status", strconv.Itoa(resp.StatusCode))
	if resp.StatusCode >= 400 {
		err, retryable := statusError(method+" "+path, resp)
		return err, retryable, parseRetryAfter(resp.Header)
	}
	if out == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil, false, 0
	}
	switch out := out.(type) {
	case *[]byte:
		// The raw body — the checksummed ring and membership payloads,
		// which carry their own integrity check.
		data, err := readBody(resp.Body, maxControlBody)
		if err != nil {
			return fmt.Errorf("dmfclient: read %s %s response: %w", method, path, err), true, 0
		}
		*out = data
	case **perfdmf.Trial:
		t, err := readTrial(resp)
		if err != nil {
			return fmt.Errorf("dmfclient: decode %s %s response: %w", method, path, err), true, 0
		}
		*out = t
	default:
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			// A garbled success body usually means the response was cut
			// mid-flight; the request itself succeeded server-side, so an
			// idempotent re-issue is safe and will re-fetch the full body.
			return fmt.Errorf("dmfclient: decode %s %s response: %w", method, path, err), true, 0
		}
	}
	return nil, false, 0
}

// statusError is the error an answer other than success stands for, and
// whether a repeat may be answered differently: 429 (shed load) and 5xx are
// transient, other 4xx are the caller's bug. A 404 wraps
// perfdmf.ErrNotFound, so errors.Is works identically against remote and
// local repositories.
func statusError(what string, resp *http.Response) (err error, retryable bool) {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	var e struct {
		Error string `json:"error"`
	}
	msg := fmt.Sprintf("HTTP %d", resp.StatusCode)
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		msg = fmt.Sprintf("%s (HTTP %d)", e.Error, resp.StatusCode)
	}
	if resp.StatusCode == http.StatusNotFound {
		return fmt.Errorf("dmfclient: %s: %s: %w", what, msg, perfdmf.ErrNotFound), false
	}
	return fmt.Errorf("dmfclient: %s: %s", what, msg), resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500
}

// maxControlBody bounds the raw ring and membership bodies — a few lines
// per peer, so 1 MiB is generous.
const maxControlBody = 1 << 20

// readBody reads a response body of at most limit bytes. A longer body is
// an error, never a silently shortened result.
func readBody(r io.Reader, limit int64) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) > limit {
		return nil, fmt.Errorf("body exceeds %d bytes", limit)
	}
	return data, nil
}

// readTrial decodes a trial response, which is in the encoded form the
// client asks for with Accept: a body of any other media type is a decode
// fault, and an encoded one decodes only to a trial Validate accepts. Any
// failure is a transport fault to the caller (garbled or cut body) — in
// particular a checksum mismatch must not surface as perfdmf.ErrCorrupt,
// which means "the stored trial is damaged", so the sentinel is dropped.
func readTrial(resp *http.Response) (*perfdmf.Trial, error) {
	mt, _, _ := strings.Cut(resp.Header.Get("Content-Type"), ";")
	if mt = strings.TrimSpace(mt); mt != dmfwire.TrialContentType {
		return nil, fmt.Errorf("trial body of media type %q, want %q", mt, dmfwire.TrialContentType)
	}
	data, err := readBody(resp.Body, dmfwire.MaxTrialBody)
	if err != nil {
		return nil, err
	}
	t, err := perfdmf.DecodeTrial(data)
	if err != nil {
		return nil, errors.New(err.Error())
	}
	return t, nil
}

// fetch is doCtx decoding the response into a new T.
func fetch[T any](ctx context.Context, c *Client, req request) (*T, error) {
	var out T
	if err := c.doCtx(ctx, req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// list is doCtx for a listing, answered as {"<key>": [names]}.
func (c *Client) list(key string, req request) ([]string, error) {
	resp, err := fetch[map[string][]string](context.Background(), c, req)
	if err != nil {
		return nil, err
	}
	return (*resp)[key], nil
}

// requireCoords refuses a trial with an empty coordinate before any
// request: no route can address it, since a path segment cannot be empty,
// and the daemon refuses to store one.
func requireCoords(op, app, experiment, trial string) error {
	if app == "" || experiment == "" || trial == "" {
		return fmt.Errorf("dmfclient: %s: app, experiment and trial are required", op)
	}
	return nil
}

func coordQuery(app, experiment, trial string) url.Values {
	q := url.Values{}
	if app != "" {
		q.Set("app", app)
	}
	if experiment != "" {
		q.Set("experiment", experiment)
	}
	if trial != "" {
		q.Set("trial", trial)
	}
	return q
}

// --- perfdmf.Store ----------------------------------------------------

// SaveContext uploads the trial in its encoded form
// (dmfwire.TrialContentType). The upload carries an idempotency key, so a
// retry after a lost response stores it exactly once; ctx's deadline and
// cancellation cover the whole retry loop, not just one attempt.
func (c *Client) SaveContext(ctx context.Context, t *perfdmf.Trial) error {
	return c.saveEncoded(ctx, t, "")
}

// saveEncoded posts the trial's encoded form; a non-empty hintFor makes it
// a hinted write (see SaveHintedContext).
func (c *Client) saveEncoded(ctx context.Context, t *perfdmf.Trial, hintFor string) error {
	if err := requireCoords("save trial", t.App, t.Experiment, t.Name); err != nil {
		return err
	}
	data, err := perfdmf.EncodeTrial(t)
	if err != nil {
		return fmt.Errorf("dmfclient: %w", err)
	}
	return c.postTrial(ctx, data, hintFor)
}

// postTrial posts a serialized trial, picking the media type from the
// body's magic: the encoded form, else trial JSON.
func (c *Client) postTrial(ctx context.Context, body []byte, hintFor string) error {
	req := request{route: dmfwire.UploadTrial, body: body, hintFor: hintFor}
	if perfdmf.IsEncodedTrial(body) {
		req.contentType = dmfwire.TrialContentType
	}
	return c.doCtx(ctx, req, nil)
}

// GetTrialContext fetches one trial on the resource-style route
// (/api/v1/apps/{app}/experiments/{exp}/trials/{trial}). The returned
// trial is a private copy by construction (it was decoded off the wire).
// It asks for the trial's encoded form and reads no other.
func (c *Client) GetTrialContext(ctx context.Context, app, experiment, trial string) (*perfdmf.Trial, error) {
	if err := requireCoords("get trial", app, experiment, trial); err != nil {
		return nil, err
	}
	var t *perfdmf.Trial
	err := c.doCtx(ctx, request{route: dmfwire.GetTrial, args: []string{app, experiment, trial},
		accept: dmfwire.TrialContentType}, &t)
	if err != nil {
		return nil, err
	}
	return t, nil
}

// DeleteContext removes a trial from the remote repository, on the
// resource-style route.
func (c *Client) DeleteContext(ctx context.Context, app, experiment, trial string) error {
	if err := requireCoords("delete trial", app, experiment, trial); err != nil {
		return err
	}
	return c.doCtx(ctx, request{route: dmfwire.DeleteTrial, args: []string{app, experiment, trial}}, nil)
}

// ListApplications lists application names, with transport errors.
func (c *Client) ListApplications() ([]string, error) {
	return c.list("applications", request{route: dmfwire.ListApplications})
}

// ListExperiments lists experiment names for an application, with
// transport errors.
func (c *Client) ListExperiments(app string) ([]string, error) {
	return c.list("experiments", request{route: dmfwire.ListExperiments, query: coordQuery(app, "", "")})
}

// ListTrials lists trial names for an (application, experiment) pair, with
// transport errors.
func (c *Client) ListTrials(app, experiment string) ([]string, error) {
	return c.list("trials", request{route: dmfwire.ListTrials, query: coordQuery(app, experiment, "")})
}

// --- uploads beyond native JSON ---------------------------------------

// UploadGprof sends a gprof flat profile to the server, storing it under
// the given coordinates. The profile is buffered in memory so the upload
// can be retried with the same idempotency key.
func (c *Client) UploadGprof(r io.Reader, app, experiment, trial string) (*dmfwire.UploadSummary, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("dmfclient: read gprof profile: %w", err)
	}
	q := coordQuery(app, experiment, trial)
	q.Set("format", "gprof")
	return fetch[dmfwire.UploadSummary](context.Background(), c, request{route: dmfwire.UploadTrial, query: q, body: data})
}

// UploadTAUDir reads a TAU text profile tree (MULTI__<metric> directories
// of profile.N.0.0 files) from the local filesystem and uploads it.
func (c *Client) UploadTAUDir(dir, app, experiment, trial string) (*dmfwire.UploadSummary, error) {
	files := make(map[string]string)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("dmfclient: read TAU dir: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "MULTI__") {
			continue
		}
		profiles, err := os.ReadDir(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, fmt.Errorf("dmfclient: read TAU dir: %w", err)
		}
		for _, p := range profiles {
			if p.IsDir() || !strings.HasPrefix(p.Name(), "profile.") {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, e.Name(), p.Name()))
			if err != nil {
				return nil, fmt.Errorf("dmfclient: read TAU profile: %w", err)
			}
			files[e.Name()+"/"+p.Name()] = string(data)
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("dmfclient: no MULTI__ profiles under %s", dir)
	}
	return c.UploadTAU(files, app, experiment, trial)
}

// UploadTAU uploads an in-memory TAU profile tree: relative path
// (MULTI__<metric>/profile.N.0.0) → file contents.
func (c *Client) UploadTAU(files map[string]string, app, experiment, trial string) (*dmfwire.UploadSummary, error) {
	q := url.Values{}
	q.Set("format", "tau")
	return fetch[dmfwire.UploadSummary](context.Background(), c, request{route: dmfwire.UploadTrial, query: q,
		in: dmfwire.TAUUpload{App: app, Experiment: experiment, Trial: trial, Files: files}})
}

// --- analysis and diagnosis -------------------------------------------

// AnalyzeContext runs one server-side analysis operation. Analysis of a
// stored trial is read-only server-side, so it retries like a GET.
func (c *Client) AnalyzeContext(ctx context.Context, req dmfwire.AnalyzeRequest) (*dmfwire.AnalyzeResponse, error) {
	return fetch[dmfwire.AnalyzeResponse](ctx, c, request{route: dmfwire.Analyze, in: req})
}

// DiagnoseContext runs a diagnosis script server-side. The response's
// Stdout is byte-identical to the output of the same script run in-process
// against the same repository state. Diagnosis scripts read the repository
// and return text, so like AnalyzeContext it retries automatically.
func (c *Client) DiagnoseContext(ctx context.Context, req dmfwire.DiagnoseRequest) (*dmfwire.DiagnoseResponse, error) {
	return fetch[dmfwire.DiagnoseResponse](ctx, c, request{route: dmfwire.Diagnose, in: req})
}

// --- service introspection --------------------------------------------

// Health checks GET /healthz.
func (c *Client) Health() error {
	var resp struct {
		Status string `json:"status"`
	}
	if err := c.doCtx(context.Background(), request{route: dmfwire.GetHealth}, &resp); err != nil {
		return err
	}
	if resp.Status != "ok" {
		return fmt.Errorf("dmfclient: server unhealthy: %q", resp.Status)
	}
	return nil
}

// Metrics fetches the server's typed telemetry snapshot from
// GET /api/v1/metrics.
func (c *Client) Metrics() (*dmfwire.Metrics, error) {
	return fetch[dmfwire.Metrics](context.Background(), c, request{route: dmfwire.GetMetrics})
}

// FsckContext asks the server to run a full consistency scan of its
// repository (GET /api/v1/fsck) and returns the report: readable trials,
// legacy-format trials, quarantined files, recovered temp files, scan
// errors and whether the store is in read-only degraded mode.
func (c *Client) FsckContext(ctx context.Context) (*dmfwire.FsckReport, error) {
	return fetch[dmfwire.FsckReport](ctx, c, request{route: dmfwire.RunFsck})
}

// Traces lists the server's completed traces (GET /api/v1/traces).
func (c *Client) Traces() ([]obs.TraceSummary, error) {
	var resp dmfwire.TraceList
	if err := c.doCtx(context.Background(), request{route: dmfwire.ListTraces}, &resp); err != nil {
		return nil, err
	}
	return resp.Traces, nil
}

// TraceContext fetches one completed trace by id (GET
// /api/v1/traces/{id}). Unknown ids wrap perfdmf.ErrNotFound. Pass an
// untraced context when collecting a trace you are about to export, or the
// fetch itself will grow the tree it is fetching.
func (c *Client) TraceContext(ctx context.Context, id string) (obs.Trace, error) {
	var tr obs.Trace
	err := c.doCtx(ctx, request{route: dmfwire.GetTrace, args: []string{id}}, &tr)
	return tr, err
}
