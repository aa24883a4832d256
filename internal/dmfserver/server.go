// Package dmfserver exposes a PerfDMF profile repository and the
// PerfExplorer analysis stack as a networked HTTP/JSON service — the
// perfdmfd daemon. Many clients can upload trials (the encoded form the
// repository stores, native JSON, TAU text profiles, or gprof flat
// profiles), browse the Application → Experiment → Trial hierarchy, fetch
// trials in either representation, run analysis operations, and execute
// rule-based diagnosis server-side against one shared repository, in the
// spirit of networked performance-knowledge repositories (Collective Mind /
// Collective Tuning).
//
// The service is plain net/http with production hygiene built in:
//
//   - an admission semaphore caps how many requests may run analysis or
//     diagnosis at once (the daemon's -j flag), and an admitted request
//     does its work on its own goroutine and starts no other, so -j is
//     also the bound on goroutines doing analysis; when it saturates, the
//     server sheds load with 429 + Retry-After after a bounded admission
//     wait instead of queueing requests until their deadline;
//   - every request runs under a timeout and a maximum body size; the
//     timeout reaches into script execution (a diagnosis script is
//     cancelled at the request deadline and additionally bounded by a
//     statement budget), so a looping script cannot pin an analysis slot;
//   - uploads carrying an Idempotency-Key header are deduplicated: a
//     retried POST whose response was lost replays the original response
//     instead of storing the trial again;
//   - requests are logged as structured (slog) records and traced with
//     internal/obs: a Traceparent header continues the caller's trace, so
//     a remote diagnosis yields one tree from the client's attempt span
//     down through script statements, rule firings and repository I/O;
//     completed traces are served by GET /api/v1/traces[/{id}];
//   - GET /healthz answers liveness probes and GET /api/v1/metrics serves
//     the typed, versioned telemetry schema (request counts, latency
//     histograms, repository size, resilience counters);
//   - the configured http.Server carries read/write timeouts and supports
//     graceful shutdown with connection draining;
//   - for chaos testing, Config.FaultInjector wires a seeded
//     internal/faults schedule into the request path (never set it in
//     production).
//
// Remote diagnosis is byte-identical to the in-process path: the server
// runs the same core.Session + diagnosis knowledge base over the shared
// repository and returns the captured script output verbatim.
package dmfserver

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"perfknow/internal/analysis"
	"perfknow/internal/core"
	"perfknow/internal/diagnosis"
	"perfknow/internal/dmfwire"
	"perfknow/internal/faults"
	"perfknow/internal/obs"
	"perfknow/internal/perfdmf"
)

// The wire protocol types are shared with internal/dmfclient through the
// leaf package internal/dmfwire; aliases keep the natural names available
// on the server side.
type (
	UploadSummary    = dmfwire.UploadSummary
	TAUUpload        = dmfwire.TAUUpload
	AnalyzeRequest   = dmfwire.AnalyzeRequest
	AnalyzeResponse  = dmfwire.AnalyzeResponse
	DiagnoseRequest  = dmfwire.DiagnoseRequest
	DiagnoseResponse = dmfwire.DiagnoseResponse
	Metrics          = dmfwire.Metrics
	FsckReport       = dmfwire.FsckReport
)

// Default hygiene limits, overridable through Config.
const (
	DefaultMaxBodyBytes   = dmfwire.MaxTrialBody // 32 MiB of profile data per upload
	DefaultRequestTimeout = 30 * time.Second
	// DefaultMaxScriptSteps bounds how many statements one diagnosis
	// script may execute — generous for real analyses, but a hard stop
	// for runaway loops even if the request context were somehow ignored.
	DefaultMaxScriptSteps = 10_000_000
	// DefaultAdmissionWait is how long a request may wait for an analysis
	// slot before the server sheds it with 429 + Retry-After. Long enough
	// to absorb micro-bursts, short enough that a saturated server answers
	// quickly instead of queueing work until its deadline.
	DefaultAdmissionWait = 50 * time.Millisecond
	// DefaultIdempotencyEntries bounds the upload dedup cache (FIFO
	// eviction beyond it).
	DefaultIdempotencyEntries = 1024
	// shedRetryAfter is the Retry-After hint (seconds) sent with 429s.
	shedRetryAfter = "1"
)

// Config parameterizes a Server.
type Config struct {
	// Repo is the shared profile repository. Required.
	Repo *perfdmf.Repository
	// RulesDir is the directory holding the .prl rule files diagnosis
	// scripts and standing diagnoses load by name, read in place. Empty
	// means the built-in knowledge base (diagnosis.RuleSource).
	RulesDir string
	// Jobs caps how many requests may run analysis/diagnosis concurrently
	// (<= 0: GOMAXPROCS).
	Jobs int
	// MaxBodyBytes bounds request bodies (<= 0: DefaultMaxBodyBytes).
	MaxBodyBytes int64
	// RequestTimeout bounds one request's total work (<= 0:
	// DefaultRequestTimeout).
	RequestTimeout time.Duration
	// MaxScriptSteps bounds the number of statements a diagnosis script
	// may execute, independent of the request timeout (<= 0:
	// DefaultMaxScriptSteps; use a negative value for "unlimited" only in
	// trusted deployments).
	MaxScriptSteps int
	// AdmissionWait bounds how long a request waits for an analysis slot
	// before being shed with 429 (0: DefaultAdmissionWait; negative: shed
	// immediately when saturated).
	AdmissionWait time.Duration
	// FaultInjector, when non-nil, injects faults (connection resets,
	// truncation, latency, 5xx bursts, slow bodies) into the request path.
	// Test-only: it exists so chaos suites can prove the retry and
	// idempotency machinery; never set it in production.
	FaultInjector faults.Injector
	// Logger receives structured request logs (nil: slog.Default()).
	Logger *slog.Logger
	// Tracer collects request traces (nil: a fresh obs.NewTracer with the
	// default ring-buffer bounds). Completed traces are served by
	// GET /api/v1/traces.
	Tracer *obs.Tracer
	// Registry holds the server's metrics (nil: a fresh obs.NewRegistry).
	// Share one to fold server metrics into an embedding process's surface.
	Registry *obs.Registry
	// StreamWindow is the default sliding-window size (in chunks) for
	// streams whose StreamOpen does not pick one (daemon -stream-window).
	// 0 means DefaultStreamWindow; negative means cumulative (standing
	// analysis sees every chunk).
	StreamWindow int
	// StandingRules names .prl files (relative to RulesDir) registered as
	// standing diagnoses on streams that don't pick their own rule sets
	// (daemon -standing-rules).
	StandingRules []string
	// Ring, when non-nil, declares this daemon a member of a static
	// cluster: the canonical descriptor is served at GET /api/v1/cluster
	// for cluster-routing clients to cross-check (see
	// cluster.ShardedStore.VerifyRing), and the ring identity gauges
	// (cluster_ring_epoch/peers/replicas/vnodes) are published so
	// operators can assert every peer runs one epoch. Nil means
	// standalone; the endpoint answers 404. When Node is also set, the
	// node's live descriptor wins and Ring is only the starting point.
	Ring *dmfwire.Ring
	// Node, when non-nil, makes this daemon an ACTIVE cluster member
	// backed by a gossip agent (cluster.Agent): GET /api/v1/cluster serves
	// the node's live descriptor (epoch bumps take effect without
	// restarts), POST /api/v1/cluster accepts operator ring announces,
	// POST/GET /api/v1/cluster/gossip carry the membership exchange and
	// the operator view, and uploads with a Dmf-Hint-For header leave a
	// durable handoff hint for the named peer.
	Node ClusterNode
}

// Server is the perfdmfd HTTP service.
type Server struct {
	repo          *perfdmf.Repository
	rulesDir      string
	slots         *admission
	maxBody       int64
	timeout       time.Duration
	maxSteps      int
	admissionWait time.Duration
	injector      faults.Injector
	idem          *idempotencyCache
	log           *slog.Logger
	mux           *http.ServeMux

	tracer *obs.Tracer
	reg    *obs.Registry
	// routeCache maps route label → *routeHandles so the per-request path
	// resolves its counters without locking the registry.
	routeCache sync.Map

	// Resilience counters (handles into reg).
	shed          *obs.Counter
	retried       *obs.Counter
	idemReplays   *obs.Counter
	uploadsStored *obs.Counter

	// Streaming ingestion (stream.go).
	streams       *streamRegistry
	streamWindow  int
	standingRules []string
	streamsOpened *obs.Counter
	streamsSealed *obs.Counter
	streamChunks  *obs.Counter
	streamAlerts  *obs.Counter

	// ring is the canonical cluster descriptor (nil when standalone);
	// ringBytes is its wire encoding, fixed at startup. When node is set
	// the live descriptor it holds takes precedence over both.
	ring      *dmfwire.Ring
	ringBytes []byte
	node      ClusterNode
}

// New builds a Server. It writes nothing to disk: the knowledge base is
// read where it lives, embedded or under cfg.RulesDir.
func New(cfg Config) (*Server, error) {
	if cfg.Repo == nil {
		return nil, errors.New("dmfserver: Config.Repo is required")
	}
	var ring *dmfwire.Ring
	var ringBytes []byte
	if cfg.Ring != nil {
		canon := cfg.Ring.Canonical()
		data, err := dmfwire.EncodeRing(canon)
		if err != nil {
			return nil, fmt.Errorf("dmfserver: cluster ring: %w", err)
		}
		ring, ringBytes = &canon, data
	}
	maxBody := cfg.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = DefaultMaxBodyBytes
	}
	timeout := cfg.RequestTimeout
	if timeout <= 0 {
		timeout = DefaultRequestTimeout
	}
	maxSteps := cfg.MaxScriptSteps
	switch {
	case maxSteps == 0:
		maxSteps = DefaultMaxScriptSteps
	case maxSteps < 0:
		maxSteps = 0 // explicit opt-out: unlimited
	}
	jobs := cfg.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	admissionWait := cfg.AdmissionWait
	switch {
	case admissionWait == 0:
		admissionWait = DefaultAdmissionWait
	case admissionWait < 0:
		admissionWait = 0 // explicit opt-in: shed without waiting
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	tracer := cfg.Tracer
	if tracer == nil {
		tracer = obs.NewTracer()
	}
	if tracer.Service == "" {
		tracer.Service = "perfdmfd"
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	streamWindow := cfg.StreamWindow
	switch {
	case streamWindow == 0:
		streamWindow = DefaultStreamWindow
	case streamWindow < 0:
		streamWindow = 0 // explicit request for cumulative analysis
	}
	s := &Server{
		repo:          cfg.Repo,
		rulesDir:      cfg.RulesDir,
		ring:          ring,
		ringBytes:     ringBytes,
		slots:         newAdmission(jobs),
		maxBody:       maxBody,
		timeout:       timeout,
		maxSteps:      maxSteps,
		admissionWait: admissionWait,
		injector:      cfg.FaultInjector,
		idem:          newIdempotencyCache(DefaultIdempotencyEntries),
		log:           logger,
		tracer:        tracer,
		reg:           reg,
		shed:          reg.Counter("requests_shed_total"),
		retried:       reg.Counter("requests_retried_total"),
		idemReplays:   reg.Counter("idempotent_replays_total"),
		uploadsStored: reg.Counter("uploads_stored_total"),
		streams:       newStreamRegistry(),
		streamWindow:  streamWindow,
		standingRules: cfg.StandingRules,
		streamsOpened: reg.Counter("streams_opened_total"),
		streamsSealed: reg.Counter("streams_sealed_total"),
		streamChunks:  reg.Counter("stream_chunks_total"),
		streamAlerts:  reg.Counter("stream_alerts_total"),
	}
	s.node = cfg.Node
	s.registerGauges()
	s.routes()
	return s, nil
}

// registerGauges wires the instantaneous values — repository size,
// analysis slots, trace-buffer depth, streams — into the registry as
// functions evaluated at snapshot time.
func (s *Server) registerGauges() {
	s.reg.GaugeFunc("repository_applications", func() float64 {
		apps, _, _ := s.repo.Size()
		return float64(apps)
	})
	s.reg.GaugeFunc("repository_experiments", func() float64 {
		_, exps, _ := s.repo.Size()
		return float64(exps)
	})
	s.reg.GaugeFunc("repository_trials", func() float64 {
		_, _, trials := s.repo.Size()
		return float64(trials)
	})
	s.reg.GaugeFunc("analysis_slots_cap", func() float64 { return float64(cap(s.slots.sem)) })
	s.reg.GaugeFunc("analysis_slots_in_use", func() float64 { return float64(len(s.slots.sem)) })
	s.reg.GaugeFunc("analysis_slots_waiting", func() float64 { return float64(s.slots.waiting.Load()) })
	s.reg.GaugeFunc("traces_buffered", func() float64 { return float64(s.tracer.Len()) })
	s.reg.GaugeFunc("streams_active", func() float64 {
		open, _ := s.streams.active()
		return float64(open)
	})
	s.reg.GaugeFunc("stream_subscribers", func() float64 {
		_, subs := s.streams.active()
		return float64(subs)
	})
	// Durability health: store_quarantined / store_recovered_tmp /
	// store_fsync_errors counters and the store_readonly gauge.
	s.repo.Instrument(s.reg)
	switch {
	case s.node != nil:
		// Live values from the gossip agent: an epoch bump adopted at
		// runtime shows up on the next metrics scrape.
		s.reg.GaugeFunc("cluster_ring_epoch", func() float64 { return float64(s.node.Ring().Epoch) })
		s.reg.GaugeFunc("cluster_ring_peers", func() float64 { return float64(len(s.node.Ring().Peers)) })
		s.reg.GaugeFunc("cluster_ring_replicas", func() float64 { return float64(s.node.Ring().Replicas) })
		s.reg.GaugeFunc("cluster_ring_vnodes", func() float64 { return float64(s.node.Ring().VNodes) })
	case s.ring != nil:
		ring := *s.ring
		s.reg.GaugeFunc("cluster_ring_epoch", func() float64 { return float64(ring.Epoch) })
		s.reg.GaugeFunc("cluster_ring_peers", func() float64 { return float64(len(ring.Peers)) })
		s.reg.GaugeFunc("cluster_ring_replicas", func() float64 { return float64(ring.Replicas) })
		s.reg.GaugeFunc("cluster_ring_vnodes", func() float64 { return float64(ring.VNodes) })
	}
}

// Tracer returns the server's trace collector (for embedding processes
// that want to observe or export server-side traces directly).
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// Registry returns the server's metrics registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Close returns nil: a Server owns nothing that outlives it (the knowledge
// base is read in place, never copied to disk). It is kept so embedding
// processes can release a Server the same way whatever it holds.
func (s *Server) Close() error { return nil }

// Handler returns the fully wired HTTP handler (routing, logging, metrics,
// timeouts, body limits, and — when configured — fault injection between
// the instrumentation and the routes, so synthesized faults still show up
// in request metrics).
func (s *Server) Handler() http.Handler {
	return s.instrument(faults.Handler(s.injector, s.mux))
}

// HTTPServer returns an http.Server configured with the service handler
// and conservative network timeouts; callers own Serve and Shutdown.
func (s *Server) HTTPServer(addr string) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       s.timeout + 10*time.Second,
		WriteTimeout:      s.timeout + 10*time.Second,
		IdleTimeout:       120 * time.Second,
		ErrorLog:          slog.NewLogLogger(s.log.Handler(), slog.LevelWarn),
	}
}

// routes registers every row of the dmfwire route table with its handler.
// A row without one panics here, in New.
func (s *Server) routes() {
	handlers := map[dmfwire.Route]http.HandlerFunc{
		dmfwire.GetHealth:  s.handleHealthz,
		dmfwire.GetMetrics: s.handleMetrics,
		dmfwire.RunFsck:    s.handleFsck,
		dmfwire.ListTraces: s.handleTraceList,
		dmfwire.GetTrace:   s.handleTraceGet,
		// The hierarchy (resources.go).
		dmfwire.ListApplications:     s.handleApplications,
		dmfwire.ListApps:             s.handleApplications,
		dmfwire.ListExperiments:      s.handleExperiments,
		dmfwire.ListAppExperiments:   s.handleExperiments,
		dmfwire.ListTrials:           s.handleTrialList,
		dmfwire.ListExperimentTrials: s.handleTrialList,
		dmfwire.GetTrial:             s.handleTrialGet,
		dmfwire.DeleteTrial:          s.handleTrialDelete,
		dmfwire.UploadTrial:          s.handleUpload,
		dmfwire.Analyze:              s.handleAnalyze,
		dmfwire.Diagnose:             s.handleDiagnose,
		// Self-healing cluster (cluster.go).
		dmfwire.GetRing:        s.handleCluster,
		dmfwire.AnnounceRing:   s.handleAnnounce,
		dmfwire.ExchangeGossip: s.handleGossipPost,
		dmfwire.GetGossipView:  s.handleGossipGet,
		// Streaming ingestion (stream.go).
		dmfwire.OpenStream:      s.handleStreamOpen,
		dmfwire.ListStreams:     s.handleStreamList,
		dmfwire.GetStream:       s.handleStreamGet,
		dmfwire.AbortStream:     s.handleStreamDelete,
		dmfwire.AppendChunk:     s.handleStreamAppend,
		dmfwire.SealStream:      s.handleStreamSeal,
		dmfwire.SubscribeAlerts: s.handleStreamAlerts,
	}
	s.mux = http.NewServeMux()
	for _, rt := range dmfwire.Routes() {
		s.mux.HandleFunc(rt.String(), handlers[rt])
	}
}

// handleCluster serves the ring descriptor this daemon currently holds,
// in its checksummed wire form (the payload carries its own CRC, so no
// JSON envelope). A gossiping member serves its node's LIVE descriptor —
// after an epoch bump propagates, every member answers with the new ring
// without restarting; a static member serves the startup descriptor.
// Standalone daemons answer 404: "not a cluster member" and "trial not
// found" deliberately share the sentinel, letting cluster clients probe
// membership with plain error handling.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	data := s.ringBytes
	if s.node != nil {
		d, err := dmfwire.EncodeRing(s.node.Ring())
		if err != nil {
			writeError(w, http.StatusInternalServerError, fmt.Errorf("encode ring: %w", err))
			return
		}
		data = d
	}
	if data == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("this daemon is not a cluster member"))
		return
	}
	w.Header().Set("Content-Type", dmfwire.RingContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// --- plumbing ---------------------------------------------------------

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

// encodeJSON renders v exactly as writeJSON would send it, so a response
// can be cached and replayed byte-identically.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// writeJSON sends v as the response body. A value JSON cannot represent —
// in practice a stored trial holding NaN or ±Inf — answers 500 with the
// encoder's message instead of a 2xx with an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := encodeJSON(v)
	if err != nil {
		status = http.StatusInternalServerError
		body, _ = encodeJSON(apiError{Error: "encode response: " + err.Error()}) // a string always encodes
	}
	writeRaw(w, status, body)
}

func writeRaw(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, apiError{Error: err.Error()})
}

// errStatus maps service errors onto HTTP status codes. Not-found is
// detected via the perfdmf.ErrNotFound sentinel, never by message text, so
// a script or rule error that merely mentions "not found" stays a 400.
// Read-only degraded mode (the volume stopped accepting writes) is 503 —
// the request is valid, the server is temporarily unable to honour it —
// a write from a diagnose script is 403, and a corrupt stored trial is 500:
// the damage is server-side.
func errStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, perfdmf.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, perfdmf.ErrReadOnly):
		return http.StatusServiceUnavailable
	case errors.Is(err, errDiagnoseReadOnly):
		return http.StatusForbidden
	case errors.Is(err, perfdmf.ErrCorrupt):
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

// readOnlyRetryAfter is the Retry-After hint (seconds) sent with 503s
// caused by read-only degraded mode: space has to be freed and the next
// fsck probe has to notice, so the hint is minutes, not the 429's second.
const readOnlyRetryAfter = "60"

// writeServiceError maps err through errStatus and, for read-only
// rejections, attaches the Retry-After hint so well-behaved clients back
// off instead of hammering a full volume.
func writeServiceError(w http.ResponseWriter, err error) {
	if errors.Is(err, perfdmf.ErrReadOnly) {
		w.Header().Set("Retry-After", readOnlyRetryAfter)
	}
	writeError(w, errStatus(err), err)
}

// decodeBody parses a JSON request body under the configured size cap.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(v); err != nil {
		return bodyError("decode request", err)
	}
	return nil
}

// readBody reads a whole request body under the configured size cap.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		return nil, bodyError("read request", err)
	}
	return data, nil
}

func bodyError(what string, err error) error {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit)
	}
	return fmt.Errorf("%s: %w", what, err)
}

// mediaType is the media type of a Content-Type header value, without
// parameters, lower-cased.
func mediaType(header string) string {
	mt, _, _ := strings.Cut(header, ";")
	return strings.ToLower(strings.TrimSpace(mt))
}

// acceptsEncodedTrial reports whether the request's Accept header names
// dmfwire.TrialContentType. Wildcards do not count: a client gets the
// encoded form only by asking for it by name.
func acceptsEncodedTrial(r *http.Request) bool {
	for _, accept := range r.Header.Values("Accept") {
		for _, part := range strings.Split(accept, ",") {
			if mediaType(part) == dmfwire.TrialContentType {
				return true
			}
		}
	}
	return false
}

// gated admits the request to an analysis slot and runs fn under
// the request timeout. It centralizes the service's back-pressure
// mechanisms so every heavy endpoint behaves identically: a request waits
// at most admissionWait for a slot, then is shed with 429 + Retry-After —
// graceful degradation instead of a queue that times out at full depth.
func (s *Server) gated(w http.ResponseWriter, r *http.Request, fn func(ctx context.Context) error) {
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	defer cancel()
	if err := s.slots.acquire(ctx, s.admissionWait); err != nil {
		if errors.Is(err, errSaturated) {
			s.shed.Inc()
			w.Header().Set("Retry-After", shedRetryAfter)
			writeError(w, http.StatusTooManyRequests, fmt.Errorf("server saturated, retry later: %w", err))
		} else {
			writeError(w, http.StatusServiceUnavailable, fmt.Errorf("server busy: %w", err))
		}
		return
	}
	defer s.slots.release()
	if err := fn(ctx); err != nil {
		writeServiceError(w, err)
	}
}

// coords reads a request's trial coordinates: the path wildcards on a
// resource route, else the app, experiment and trial query parameters. The
// router redirects a path with an empty segment, so a wildcard that matched
// is never empty.
func coords(r *http.Request) (app, experiment, trial string) {
	if app = r.PathValue("app"); app != "" {
		return app, r.PathValue("exp"), r.PathValue("trial")
	}
	q := r.URL.Query()
	return q.Get("app"), q.Get("experiment"), q.Get("trial")
}

// requireCoords refuses a trial missing a coordinate. The repository would
// store it, but no route could reach it again: a path segment cannot be
// empty.
func requireCoords(what, app, experiment, trial string) error {
	if app == "" || experiment == "" || trial == "" {
		return fmt.Errorf("%s: app, experiment and trial are required (got %q/%q/%q)", what, app, experiment, trial)
	}
	return nil
}

// --- health and metrics -----------------------------------------------

// handleHealthz answers liveness and readiness in one probe. A healthy
// server reports {"status":"ok"}; a repository in read-only degraded mode
// (the volume stopped accepting writes) turns the probe into 503 +
// {"status":"degraded","read_only":true} so load balancers route uploads
// elsewhere while reads keep working.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.repo.ReadOnly() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":    "degraded",
			"read_only": true,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleFsck runs a full consistency scan of the repository and serves the
// report. The scan walks and checksums every trial file, so it is gated
// through an analysis slot like the other heavy endpoints.
func (s *Server) handleFsck(w http.ResponseWriter, r *http.Request) {
	s.gated(w, r, func(ctx context.Context) error {
		rep, err := s.repo.Verify()
		if err != nil {
			return err
		}
		writeJSON(w, http.StatusOK, rep)
		return nil
	})
}

// metricsBody assembles the versioned telemetry document: the registry
// snapshot plus the fault injector's counters (test deployments only),
// folded in as labeled counters at snapshot time.
func (s *Server) metricsBody() *dmfwire.Metrics {
	snap := s.reg.Snapshot()
	if s.injector != nil {
		for kind, n := range s.injector.Counts() {
			snap.Counters[obs.Key("faults_injected_total", "kind", kind)] = n
		}
	}
	return dmfwire.NewMetrics("perfdmfd", snap)
}

// handleMetrics serves the typed, versioned telemetry schema.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.metricsBody())
}

// --- traces -------------------------------------------------------------

func (s *Server) handleTraceList(w http.ResponseWriter, r *http.Request) {
	sums := s.tracer.Summaries()
	if sums == nil {
		sums = []obs.TraceSummary{}
	}
	writeJSON(w, http.StatusOK, dmfwire.TraceList{Traces: sums})
}

func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr, ok := s.tracer.Trace(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("trace %q: %w", id, perfdmf.ErrNotFound))
		return
	}
	writeJSON(w, http.StatusOK, tr)
}

// --- uploads ----------------------------------------------------------

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	s.gated(w, r, func(ctx context.Context) error {
		// Idempotency: a retried upload whose original response was lost
		// replays that response byte-for-byte instead of storing again.
		idemKey := r.Header.Get(dmfwire.HeaderIdempotencyKey)
		if idemKey != "" {
			if status, body, ok := s.idem.lookup(idemKey); ok {
				s.idemReplays.Inc()
				writeRaw(w, status, body)
				return nil
			}
		}
		// A hinted write asks this daemon to keep a durable IOU for a
		// peer that could not take the write itself; only gossiping
		// members can honor that, so refuse up front rather than
		// silently dropping the hint.
		hintFor := r.Header.Get(dmfwire.HeaderHintFor)
		if hintFor != "" && s.node == nil {
			return fmt.Errorf("hinted write for %s: this daemon is not a cluster member", hintFor)
		}
		st, err := s.storeUpload(ctx, w, r, hintFor != "")
		if err != nil {
			return err
		}
		if hintFor != "" {
			// The local copy is safe; now record the IOU.
			hint := dmfwire.Hint{Owner: hintFor, App: st.App, Experiment: st.Experiment, Trial: st.Name, Body: st.Encoded}
			if err := s.node.AcceptHint(hint); err != nil {
				return fmt.Errorf("hinted write for %s: %w", hintFor, err)
			}
		}
		s.uploadsStored.Inc()
		body, err := encodeJSON(UploadSummary{
			Application: st.App,
			Experiment:  st.Experiment,
			Name:        st.Name,
			Threads:     st.Threads,
			Events:      st.Events,
			Metrics:     st.Metrics,
		})
		if err != nil {
			return err
		}
		if idemKey != "" {
			s.idem.store(idemKey, http.StatusCreated, body)
		}
		writeRaw(w, http.StatusCreated, body)
		return nil
	})
}

// storeUpload decodes the request body — the trial's encoded form when the
// Content-Type says so, else by the format query parameter — and saves it.
// A hinted upload needs the trial's encoded form for the hint body whatever
// the upload format was, so that a gprof or TAU hinted upload replays like
// any other: an encoded upload has it from the save, which produced or
// verified exactly those bytes, the other formats encode for it.
func (s *Server) storeUpload(ctx context.Context, w http.ResponseWriter, r *http.Request, hinted bool) (perfdmf.Stored, error) {
	if mediaType(r.Header.Get("Content-Type")) == dmfwire.TrialContentType {
		data, err := s.readBody(w, r)
		if err != nil {
			return perfdmf.Stored{}, err
		}
		if app, exp, name, ok := perfdmf.EncodedCoordinates(data); ok {
			if err := requireCoords("upload", app, exp, name); err != nil {
				return perfdmf.Stored{}, err
			}
		}
		st, err := s.repo.SaveEncoded(ctx, data)
		if errors.Is(err, perfdmf.ErrCorrupt) {
			// The damage is in what the client sent, not in the store:
			// drop the sentinel so the answer is 400, not 500.
			return perfdmf.Stored{}, fmt.Errorf("decode request: %v", err)
		}
		return st, err
	}
	t, err := s.parseUpload(w, r)
	if err == nil {
		err = requireCoords("upload", t.App, t.Experiment, t.Name)
	}
	if err == nil {
		err = s.repo.SaveContext(ctx, t)
	}
	if err != nil {
		return perfdmf.Stored{}, err
	}
	st := perfdmf.Stored{App: t.App, Experiment: t.Experiment, Name: t.Name,
		Threads: t.Threads, Events: len(t.Events), Metrics: len(t.Metrics)}
	if hinted {
		if st.Encoded, err = perfdmf.EncodeTrial(t); err != nil {
			return perfdmf.Stored{}, err
		}
	}
	return st, nil
}

// parseUpload reads a trial uploaded in the format the query parameter
// names.
func (s *Server) parseUpload(w http.ResponseWriter, r *http.Request) (*perfdmf.Trial, error) {
	var t *perfdmf.Trial
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		t = &perfdmf.Trial{}
		if err := s.decodeBody(w, r, t); err != nil {
			return nil, err
		}
	case "gprof":
		app, exp, name := coords(r)
		var err error
		t, err = perfdmf.ParseGprof(http.MaxBytesReader(w, r.Body, s.maxBody), app, exp, name)
		if err != nil {
			return nil, err
		}
	case "tau":
		var up TAUUpload
		if err := s.decodeBody(w, r, &up); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp("", "perfdmfd-tau-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		for rel, content := range up.Files {
			clean := filepath.Clean(rel)
			if clean == ".." || strings.HasPrefix(clean, ".."+string(filepath.Separator)) || filepath.IsAbs(clean) {
				return nil, fmt.Errorf("tau upload: illegal file path %q", rel)
			}
			p := filepath.Join(dir, clean)
			if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
				return nil, err
			}
			if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
				return nil, err
			}
		}
		t, err = perfdmf.ParseTAU(dir, up.App, up.Experiment, up.Trial)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown upload format %q (want json, tau or gprof)", format)
	}
	return t, nil
}

// --- analysis ---------------------------------------------------------

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	s.gated(w, r, func(ctx context.Context) error {
		var req AnalyzeRequest
		if err := s.decodeBody(w, r, &req); err != nil {
			return err
		}
		t, err := s.repo.GetTrialContext(ctx, req.App, req.Experiment, req.Trial)
		if err != nil {
			return err
		}
		var resp AnalyzeResponse
		switch req.Op {
		case "stats":
			if req.Inclusive {
				resp.Stats = analysis.InclusiveStatsCtx(ctx, t, req.Metric)
			} else {
				resp.Stats = analysis.ExclusiveStatsCtx(ctx, t, req.Metric)
			}
		case "derive":
			op, err := analysis.ParseOp(req.Operator)
			if err != nil {
				return err
			}
			out, metric, err := analysis.DeriveMetricCtx(ctx, t, req.Lhs, req.Rhs, op)
			if err != nil {
				return err
			}
			resp.Metric = metric
			resp.Trial = out
		case "cluster":
			k := req.K
			if k <= 0 {
				k = 2
			}
			c, err := analysis.KMeansCtx(ctx, t, req.Metric, k, 100)
			if err != nil {
				return err
			}
			resp.Clustering = c
		case "topn":
			n := req.N
			if n <= 0 {
				n = 10
			}
			resp.Events = analysis.TopNCtx(ctx, t, req.Metric, n)
		case "loadbalance":
			resp.LoadBalance = analysis.LoadBalanceAnalysisCtx(ctx, t, req.Metric)
		default:
			return fmt.Errorf("unknown analysis op %q (want stats, derive, cluster, topn or loadbalance)", req.Op)
		}
		writeJSON(w, http.StatusOK, resp)
		return nil
	})
}

// --- diagnosis --------------------------------------------------------

// resolveScript maps a DiagnoseRequest onto script source text.
func resolveScript(req *DiagnoseRequest) (string, error) {
	switch {
	case req.Source != "" && req.Script != "":
		return "", errors.New("diagnose: set either script or source, not both")
	case req.Source != "":
		return req.Source, nil
	case req.Script != "":
		name := req.Script
		if !strings.HasSuffix(name, ".pes") {
			name += ".pes"
		}
		src, ok := diagnosis.ScriptFiles()[name]
		if !ok {
			return "", fmt.Errorf("diagnose: unknown script %q", req.Script)
		}
		return src, nil
	default:
		return "", errors.New("diagnose: script or source is required")
	}
}

func (s *Server) handleDiagnose(w http.ResponseWriter, r *http.Request) {
	s.gated(w, r, func(ctx context.Context) error {
		var req DiagnoseRequest
		if err := s.decodeBody(w, r, &req); err != nil {
			return err
		}
		src, err := resolveScript(&req)
		if err != nil {
			return err
		}
		// Each request gets a fresh session (its own rule engine and
		// interpreter) over the shared repository, so concurrent diagnoses
		// never share mutable state.
		resp, err := s.runDiagnosis(ctx, src, req.Args)
		if err != nil {
			return err
		}
		writeJSON(w, http.StatusOK, resp)
		return nil
	})
}

// errDiagnoseReadOnly refuses a write from a script run by a diagnose
// request (answered 403): a client's script reads the daemon's trials and
// writes none. Trials arrive through the upload route, under its
// idempotency key; a diagnose request is retried as a read.
var errDiagnoseReadOnly = errors.New("a remote diagnosis cannot write to the repository")

// readOnlyStore is the store a remote diagnosis runs over: the daemon's
// repository with SaveContext and DeleteContext refused.
type readOnlyStore struct{ perfdmf.Store }

func (readOnlyStore) SaveContext(context.Context, *perfdmf.Trial) error { return errDiagnoseReadOnly }

func (readOnlyStore) DeleteContext(context.Context, string, string, string) error {
	return errDiagnoseReadOnly
}

// errDiagnoseOutput refuses script output past what a diagnose response
// carries (answered 400): the script's print fails, and so does the request.
var errDiagnoseOutput = fmt.Errorf("a remote diagnosis cannot print more than %d bytes", dmfwire.MaxTrialBody)

// boundedOutput is a diagnose session's output: it takes writes while their
// total stays within max, and refuses, whole, the write that would pass it.
type boundedOutput struct {
	strings.Builder
	max int
}

func (b *boundedOutput) Write(p []byte) (int, error) {
	if b.Len()+len(p) > b.max {
		return 0, errDiagnoseOutput
	}
	return b.Builder.Write(p)
}

// runDiagnosis executes script source exactly as cmd/perfexplorer would:
// same session wiring, same knowledge-base installation, same output path —
// except that the session's store refuses writes (errDiagnoseReadOnly), its
// output stops at dmfwire.MaxTrialBody bytes (errDiagnoseOutput), and
// execution is bounded by the request context and a statement budget, so an
// inline `while true` script ends at the request deadline (mapped to 504)
// instead of holding an analysis slot forever.
func (s *Server) runDiagnosis(ctx context.Context, src string, args []string) (*DiagnoseResponse, error) {
	session := core.NewSession(readOnlyStore{s.repo})
	session.SetContext(ctx)
	session.SetMaxSteps(s.maxSteps)
	buf := boundedOutput{max: dmfwire.MaxTrialBody}
	session.SetOutput(&buf)
	diagnosis.Install(session, s.rulesDir)
	diagnosis.SetArgs(session, args)
	if err := session.RunScript(src); err != nil {
		return nil, err
	}
	resp := &DiagnoseResponse{Stdout: buf.String()}
	if res := session.LastResult(); res != nil {
		resp.Output = res.Output
		resp.Recommendations = res.Recommendations
	}
	return resp, nil
}
