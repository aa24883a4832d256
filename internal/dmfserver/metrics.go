package dmfserver

import (
	"net/http"
	"strconv"
	"time"

	"perfknow/internal/faults"
	"perfknow/internal/obs"
)

// Per-route request telemetry lives in the server's obs.Registry:
// `http_requests_total{route=...}`, `http_request_errors_total{route=...}`
// and the `http_request_duration_ms{route=...}` histogram (whose Max
// replaces the old routeStats.maxMicros). Updates are registry atomics;
// the per-route handles are resolved once and cached in a sync.Map, so
// the request hot path takes no mutex — the old metricsRegistry design
// read and wrote maxMicros under the same lock every request took.

// routeHandles bundles the resolved metric handles for one route label.
type routeHandles struct {
	requests *obs.Counter
	errors   *obs.Counter
	duration *obs.Histogram
}

// handlesFor returns the cached handles for route, resolving them from the
// registry on first sight of the label.
func (s *Server) handlesFor(route string) *routeHandles {
	if h, ok := s.routeCache.Load(route); ok {
		return h.(*routeHandles)
	}
	h := &routeHandles{
		requests: s.reg.Counter(obs.Key("http_requests_total", "route", route)),
		errors:   s.reg.Counter(obs.Key("http_request_errors_total", "route", route)),
		duration: s.reg.Histogram(obs.Key("http_request_duration_ms", "route", route), nil),
	}
	actual, _ := s.routeCache.LoadOrStore(route, h)
	return actual.(*routeHandles)
}

// routeLabel is the request's bounded-cardinality route label: the pattern
// the router itself matches it to ("GET /api/v1/traces/{id}"), so ids and
// resource names never become metric labels and a new route needs no entry
// anywhere else. Every request the router has no handler for shares one
// label per method — a client probing distinct paths must not mint a
// sync.Map entry and three registry series for each.
func (s *Server) routeLabel(r *http.Request) string {
	if _, pattern := s.mux.Handler(r); pattern != "" {
		return pattern
	}
	return r.Method + " unmatched"
}

// statusWriter captures the response status and byte count for logging and
// metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Unwrap exposes the underlying writer so http.ResponseController can reach
// Flush/SetWriteDeadline through the instrumentation layer — the SSE alert
// subscription depends on both.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument wraps the router with tracing, request logging and metrics.
// Each request runs under a server span; a Traceparent header continues
// the caller's trace, so client attempt spans become the parents of the
// server-side tree (HTTP handler → script statements → repository I/O).
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if faults.Attempt(r.Header) > 0 {
			s.retried.Inc()
		}
		route := s.routeLabel(r)

		ctx := obs.ContextWithTracer(r.Context(), s.tracer)
		if traceID, spanID, ok := obs.Extract(r.Header); ok {
			ctx = obs.ContextWithRemoteParent(ctx, traceID, spanID)
		}
		ctx, span := obs.StartSpan(ctx, "dmfserver "+route)
		r = r.WithContext(ctx)

		sw := &statusWriter{ResponseWriter: w}
		begin := time.Now()
		next.ServeHTTP(sw, r)
		elapsed := time.Since(begin)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}

		h := s.handlesFor(route)
		h.requests.Inc()
		if sw.status >= 400 {
			h.errors.Inc()
		}
		h.duration.Observe(float64(elapsed.Microseconds()) / 1e3)

		span.SetAttr("status", strconv.Itoa(sw.status))
		span.End()

		s.log.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"bytes", sw.bytes,
			"duration_ms", float64(elapsed.Microseconds())/1e3,
			"remote", r.RemoteAddr,
		)
	})
}
