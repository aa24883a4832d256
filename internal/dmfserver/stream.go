package dmfserver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"perfknow/internal/diagnosis"
	"perfknow/internal/dmfwire"
	"perfknow/internal/obs"
	"perfknow/internal/perfdmf"
)

// Streaming ingestion: POST /api/v1/streams opens a stream, chunks are
// appended with dense sequence numbers, and an explicit seal turns the
// accumulation into a stored trial byte-identical to a whole-file upload.
// While the stream is open a StandingDiagnosis watches a sliding window of
// chunks and every rule firing becomes a StreamAlert, delivered over SSE.
const (
	// DefaultStreamWindow is the default sliding-window size, in chunks,
	// that standing diagnoses analyze when neither the daemon nor the
	// stream open request picks one. Wide enough to smooth chunk-to-chunk
	// noise, narrow enough that a diagnosis tracks the live behavior
	// instead of the whole history.
	DefaultStreamWindow = 64
	// DefaultStreamAlertRetention bounds how many alerts one stream keeps
	// for Last-Event-ID replay. A subscriber further behind than this gets
	// the oldest retained alert next (the gap is unrecoverable).
	DefaultStreamAlertRetention = 4096
	// DefaultSealedStreamRetention is how many sealed streams stay visible
	// (for late alert subscribers and duplicate seal requests) before the
	// registry forgets the oldest.
	DefaultSealedStreamRetention = 64
	// sseHeartbeat paces keep-alive comments on an idle subscription so
	// intermediaries don't reap the connection.
	sseHeartbeat = 15 * time.Second
	// sseWriteTimeout bounds one SSE write burst; a subscriber that stops
	// reading for this long is disconnected (it can resume via
	// Last-Event-ID).
	sseWriteTimeout = 30 * time.Second
)

// Stream states.
const (
	streamOpen    = "open"
	streamSealed  = "sealed"
	streamAborted = "aborted"
)

type streamRegistry struct {
	mu      sync.Mutex
	streams map[string]*stream
	order   []string // open order, for stable listings
	sealed  []string // seal order, for retention eviction
	nextID  int64
}

func newStreamRegistry() *streamRegistry {
	return &streamRegistry{streams: make(map[string]*stream)}
}

func (r *streamRegistry) lookup(id string) *stream {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.streams[id]
}

func (r *streamRegistry) list() []*stream {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*stream, 0, len(r.order))
	for _, id := range r.order {
		if st := r.streams[id]; st != nil {
			out = append(out, st)
		}
	}
	return out
}

func (r *streamRegistry) add(st *stream) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	st.id = "s" + strconv.FormatInt(r.nextID, 10)
	r.streams[st.id] = st
	r.order = append(r.order, st.id)
	return st.id
}

// remove forgets a stream: it leaves the listing and, when sealed, the
// retention queue, so it no longer counts against the sealed bound.
func (r *streamRegistry) remove(id string) *stream {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.streams[id]
	if st == nil {
		return nil
	}
	delete(r.streams, id)
	r.order = without(r.order, id)
	r.sealed = without(r.sealed, id)
	return st
}

// noteSealed records a seal and evicts the oldest sealed streams beyond the
// retention bound. A stream removed while it was sealing is not recorded.
func (r *streamRegistry) noteSealed(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.streams[id] == nil {
		return
	}
	r.sealed = append(r.sealed, id)
	for len(r.sealed) > DefaultSealedStreamRetention {
		victim := r.sealed[0]
		r.sealed = r.sealed[1:]
		delete(r.streams, victim)
		r.order = without(r.order, victim)
	}
}

// without returns ids with its one occurrence of id, if any, removed.
func without(ids []string, id string) []string {
	if i := slices.Index(ids, id); i >= 0 {
		return slices.Delete(ids, i, i+1)
	}
	return ids
}

func (r *streamRegistry) active() (open, subscribers int) {
	r.mu.Lock()
	streams := make([]*stream, 0, len(r.streams))
	for _, st := range r.streams {
		streams = append(streams, st)
	}
	r.mu.Unlock()
	for _, st := range streams {
		st.mu.Lock()
		if st.state == streamOpen {
			open++
		}
		subscribers += st.subs
		st.mu.Unlock()
	}
	return open, subscribers
}

// stream is one live (or recently sealed) ingestion stream.
type stream struct {
	id     string
	open   dmfwire.StreamOpen // normalized open parameters
	metric string             // diagnosis metric the window tracks

	mu      sync.Mutex
	state   string
	trial   *perfdmf.Trial // full accumulation; becomes the stored trial
	diag    *StandingDiagnosis
	lastSeq int64

	// alerts is the retained tail; ids are 1-based and monotonic, so
	// alerts[0].ID == nextAlert-len(alerts)+1.
	alerts    []dmfwire.StreamAlert
	nextAlert int64

	// notify is closed and replaced whenever alerts arrive or the state
	// changes; SSE subscribers wait on it.
	notify chan struct{}

	sealStatus int
	sealBody   []byte

	subs int // live SSE subscribers
}

func (st *stream) changedLocked() {
	close(st.notify)
	st.notify = make(chan struct{})
}

func (st *stream) infoLocked() dmfwire.StreamInfo {
	return dmfwire.StreamInfo{
		ID:         st.id,
		App:        st.open.App,
		Experiment: st.open.Experiment,
		Trial:      st.open.Trial,
		Threads:    st.open.Threads,
		Metrics:    append([]string(nil), st.open.Metrics...),
		Window:     st.open.Window,
		Rules:      append([]string(nil), st.open.Rules...),
		Metric:     st.metric,
		State:      st.state,
		LastSeq:    st.lastSeq,
		Events:     len(st.trial.Events),
		Alerts:     st.nextAlert,
	}
}

func (st *stream) info() dmfwire.StreamInfo {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.infoLocked()
}

// --- handlers ---------------------------------------------------------

// loadStandingRules reads the named .prl files from the server's rule
// source. Names are bare file names — path separators are rejected so a
// stream names only files at the knowledge base's top level.
func (s *Server) loadStandingRules(names []string) ([]string, []string, error) {
	resolved := make([]string, 0, len(names))
	sources := make([]string, 0, len(names))
	for _, name := range names {
		if name == "" {
			continue
		}
		if strings.ContainsAny(name, "/\\") || name == "." || name == ".." {
			return nil, nil, fmt.Errorf("illegal rule file name %q", name)
		}
		if !strings.HasSuffix(name, ".prl") {
			name += ".prl"
		}
		data, err := fs.ReadFile(diagnosis.RuleSource(s.rulesDir), name)
		if err != nil {
			return nil, nil, fmt.Errorf("rule file %q: %w", name, err)
		}
		resolved = append(resolved, strings.TrimSuffix(name, ".prl"))
		sources = append(sources, string(data))
	}
	return resolved, sources, nil
}

func (s *Server) handleStreamOpen(w http.ResponseWriter, r *http.Request) {
	s.gated(w, r, func(ctx context.Context) error {
		idemKey := r.Header.Get(dmfwire.HeaderIdempotencyKey)
		if idemKey != "" {
			if status, body, ok := s.idem.lookup(idemKey); ok {
				s.idemReplays.Inc()
				writeRaw(w, status, body)
				return nil
			}
		}
		var open dmfwire.StreamOpen
		if err := s.decodeBody(w, r, &open); err != nil {
			return err
		}
		if open.App == "" || open.Experiment == "" || open.Trial == "" {
			return errors.New("stream open needs app, experiment and trial fields")
		}
		if open.Threads < 1 {
			return errors.New("stream open needs threads >= 1")
		}
		if len(open.Metrics) == 0 {
			return errors.New("stream open needs at least one metric")
		}
		switch {
		case open.Window == 0:
			open.Window = s.streamWindow
		case open.Window < 0:
			open.Window = 0 // explicit request for a cumulative window
		}
		if len(open.Rules) == 0 {
			open.Rules = append([]string(nil), s.standingRules...)
		}
		metric := open.Metric
		if metric == "" {
			metric = open.Metrics[0]
			for _, m := range open.Metrics {
				if m == perfdmf.TimeMetric {
					metric = m
					break
				}
			}
		}
		found := false
		for _, m := range open.Metrics {
			if m == metric {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("diagnosis metric %q is not a registered stream metric", metric)
		}
		names, sources, err := s.loadStandingRules(open.Rules)
		if err != nil {
			return err
		}
		open.Rules = names
		diag, err := NewStandingDiagnosis(open.Threads, open.Window, sources...)
		if err != nil {
			return err
		}
		t := perfdmf.NewTrial(open.App, open.Experiment, open.Trial, open.Threads)
		for _, m := range open.Metrics {
			t.AddMetric(m)
		}
		st := &stream{
			open:   open,
			metric: metric,
			state:  streamOpen,
			trial:  t,
			diag:   diag,
			notify: make(chan struct{}),
		}
		s.streams.add(st)
		s.streamsOpened.Inc()
		body, err := encodeJSON(st.info())
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

func (s *Server) handleStreamList(w http.ResponseWriter, r *http.Request) {
	infos := []dmfwire.StreamInfo{}
	for _, st := range s.streams.list() {
		infos = append(infos, st.info())
	}
	writeJSON(w, http.StatusOK, dmfwire.StreamList{Streams: infos})
}

// streamByID resolves the {id} path value, writing the 404 itself when the
// stream is unknown.
func (s *Server) streamByID(w http.ResponseWriter, r *http.Request) *stream {
	id := r.PathValue("id")
	st := s.streams.lookup(id)
	if st == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("stream %q: %w", id, perfdmf.ErrNotFound))
	}
	return st
}

func (s *Server) handleStreamGet(w http.ResponseWriter, r *http.Request) {
	if st := s.streamByID(w, r); st != nil {
		writeJSON(w, http.StatusOK, st.info())
	}
}

func (s *Server) handleStreamDelete(w http.ResponseWriter, r *http.Request) {
	st := s.streams.remove(r.PathValue("id"))
	if st == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("stream %q: %w", r.PathValue("id"), perfdmf.ErrNotFound))
		return
	}
	st.mu.Lock()
	if st.state == streamOpen {
		st.state = streamAborted
	}
	st.changedLocked()
	st.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
}

// validateChunk checks shapes and metric registration before anything is
// applied, so a bad chunk is rejected atomically.
func (st *stream) validateChunkLocked(chunk *dmfwire.StreamChunk) error {
	threads := st.open.Threads
	registered := func(m string) bool {
		for _, x := range st.open.Metrics {
			if x == m {
				return true
			}
		}
		return false
	}
	for _, ev := range chunk.Events {
		if ev.Name == "" {
			return errors.New("chunk event with empty name")
		}
		if len(ev.Calls) != 0 && len(ev.Calls) != threads {
			return fmt.Errorf("event %q: calls has %d values, want %d", ev.Name, len(ev.Calls), threads)
		}
		for metric, vals := range ev.Inclusive {
			if !registered(metric) {
				return fmt.Errorf("event %q: metric %q is not registered on this stream", ev.Name, metric)
			}
			if len(vals) != threads {
				return fmt.Errorf("event %q: inclusive[%s] has %d values, want %d", ev.Name, metric, len(vals), threads)
			}
		}
		for metric, vals := range ev.Exclusive {
			if !registered(metric) {
				return fmt.Errorf("event %q: metric %q is not registered on this stream", ev.Name, metric)
			}
			if len(vals) != threads {
				return fmt.Errorf("event %q: exclusive[%s] has %d values, want %d", ev.Name, metric, len(vals), threads)
			}
		}
	}
	return nil
}

// applyChunkLocked accumulates the chunk into the trial, exactly as
// repeated AddValue calls on a whole upload would, and derives the window
// samples for the diagnosis metric.
func (st *stream) applyChunkLocked(chunk *dmfwire.StreamChunk) []perfdmf.WindowSample {
	samples := make([]perfdmf.WindowSample, 0, len(chunk.Events))
	for _, ev := range chunk.Events {
		e := st.trial.EnsureEvent(ev.Name)
		if len(e.Groups) == 0 && len(ev.Groups) > 0 {
			e.Groups = append([]string(nil), ev.Groups...)
		}
		for i, v := range ev.Calls {
			e.Calls[i] += v
		}
		// Metrics are applied in registration order so float accumulation
		// order is deterministic regardless of JSON map iteration.
		for _, metric := range st.trial.Metrics {
			inc, hasInc := ev.Inclusive[metric]
			exc, hasExc := ev.Exclusive[metric]
			for t := 0; t < st.open.Threads; t++ {
				var iv, xv float64
				if hasInc {
					iv = inc[t]
				}
				if hasExc {
					xv = exc[t]
				}
				if hasInc || hasExc {
					e.AddValue(metric, t, iv, xv)
				}
			}
		}
		if vals, ok := ev.Exclusive[st.metric]; ok {
			samples = append(samples, perfdmf.WindowSample{Event: ev.Name, Values: vals})
		} else if strings.Contains(ev.Name, perfdmf.CallpathSeparator) {
			// Callpath events feed nesting discovery even without values.
			samples = append(samples, perfdmf.WindowSample{Event: ev.Name})
		}
	}
	return samples
}

func (s *Server) handleStreamAppend(w http.ResponseWriter, r *http.Request) {
	st := s.streamByID(w, r)
	if st == nil {
		return
	}
	s.gated(w, r, func(ctx context.Context) error {
		var chunk dmfwire.StreamChunk
		if err := s.decodeBody(w, r, &chunk); err != nil {
			return err
		}
		if chunk.Seq < 1 {
			return errors.New("chunk seq must be >= 1")
		}
		ctx, span := obs.StartSpan(ctx, "stream.append",
			"stream", st.id, "seq", strconv.FormatInt(chunk.Seq, 10))
		defer span.End()

		st.mu.Lock()
		defer st.mu.Unlock()
		if st.state != streamOpen {
			writeError(w, http.StatusConflict, fmt.Errorf("stream %q is %s", st.id, st.state))
			return nil
		}
		if chunk.Seq <= st.lastSeq {
			// Retried append: acknowledged as a duplicate with the stream's
			// current counts; nothing re-applies.
			writeJSON(w, http.StatusOK, dmfwire.AppendAck{
				Stream: st.id, Seq: chunk.Seq, Duplicate: true,
				Events: len(st.trial.Events), Alerts: st.nextAlert,
			})
			return nil
		}
		if chunk.Seq != st.lastSeq+1 {
			writeError(w, http.StatusConflict,
				fmt.Errorf("chunk seq %d skips ahead (last applied %d)", chunk.Seq, st.lastSeq))
			return nil
		}
		if err := st.validateChunkLocked(&chunk); err != nil {
			return err
		}
		samples := st.applyChunkLocked(&chunk)
		st.lastSeq = chunk.Seq
		s.streamChunks.Inc()

		firings, err := st.diag.Append(ctx, samples)
		if err != nil {
			// A rule-base error must not poison ingestion: the chunk is
			// applied and acknowledged; the failure is logged and traced.
			s.log.Warn("standing diagnosis failed", "stream", st.id, "seq", chunk.Seq, "err", err)
			span.SetError(err)
		}
		for _, f := range firings {
			st.nextAlert++
			st.alerts = append(st.alerts, dmfwire.StreamAlert{
				ID:              st.nextAlert,
				Stream:          st.id,
				Seq:             chunk.Seq,
				Rule:            f.Rule,
				Output:          f.Output,
				Recommendations: f.Recommendations,
			})
			s.streamAlerts.Inc()
		}
		if len(st.alerts) > DefaultStreamAlertRetention {
			drop := len(st.alerts) - DefaultStreamAlertRetention
			st.alerts = append(st.alerts[:0:0], st.alerts[drop:]...)
		}
		if len(firings) > 0 {
			st.changedLocked()
		}
		span.SetAttr("alerts", strconv.Itoa(len(firings)))

		writeJSON(w, http.StatusOK, dmfwire.AppendAck{
			Stream: st.id, Seq: chunk.Seq,
			Events: len(st.trial.Events), Alerts: st.nextAlert,
		})
		return nil
	})
}

func (s *Server) handleStreamSeal(w http.ResponseWriter, r *http.Request) {
	st := s.streamByID(w, r)
	if st == nil {
		return
	}
	s.gated(w, r, func(ctx context.Context) error {
		st.mu.Lock()
		defer st.mu.Unlock()
		switch st.state {
		case streamSealed:
			// Idempotent: a retried seal replays the original response.
			writeRaw(w, st.sealStatus, st.sealBody)
			return nil
		case streamAborted:
			writeError(w, http.StatusConflict, fmt.Errorf("stream %q is aborted", st.id))
			return nil
		}
		t := st.trial
		if err := t.Validate(); err != nil {
			return err
		}
		if err := s.repo.SaveContext(ctx, t); err != nil {
			return err
		}
		body, err := encodeJSON(UploadSummary{
			Application: t.App,
			Experiment:  t.Experiment,
			Name:        t.Name,
			Threads:     t.Threads,
			Events:      len(t.Events),
			Metrics:     len(t.Metrics),
		})
		if err != nil {
			return err
		}
		s.uploadsStored.Inc()
		s.streamsSealed.Inc()
		st.state = streamSealed
		st.sealStatus = http.StatusCreated
		st.sealBody = body
		st.changedLocked()
		s.streams.noteSealed(st.id)
		writeRaw(w, st.sealStatus, st.sealBody)
		return nil
	})
}

// --- SSE alert subscription -------------------------------------------

// lastEventID parses the subscriber's resume position from the standard
// Last-Event-ID header, falling back to a ?last_event_id= query parameter
// (handy for curl).
func lastEventID(r *http.Request) int64 {
	raw := r.Header.Get(dmfwire.HeaderLastEventID)
	if raw == "" {
		raw = r.URL.Query().Get("last_event_id")
	}
	if raw == "" {
		return 0
	}
	id, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || id < 0 {
		return 0
	}
	return id
}

// writeSSE emits one Server-Sent Event frame. Data is compact JSON (one
// line), so no data-splitting is needed.
func writeSSE(w io.Writer, id int64, event string, data any) error {
	payload, err := json.Marshal(data)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", id, event, payload)
	return err
}

// handleStreamAlerts is the standing-diagnosis subscription: a long-lived
// SSE response replaying every retained alert after the subscriber's
// Last-Event-ID, then pushing new alerts as chunks produce them, ending
// with a terminal `sealed` event. It deliberately bypasses the analysis
// slots (a subscription parks, it doesn't compute) and clears the
// connection's write deadline, which the daemon's http.Server sizes for
// request/response exchanges, not for subscriptions.
func (s *Server) handleStreamAlerts(w http.ResponseWriter, r *http.Request) {
	st := s.streamByID(w, r)
	if st == nil {
		return
	}
	rc := http.NewResponseController(w)
	_ = rc.SetWriteDeadline(time.Time{})
	_ = rc.SetReadDeadline(time.Time{})
	h := w.Header()
	h.Set("Content-Type", dmfwire.SSEContentType)
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	_ = rc.Flush() // commit headers so the subscriber sees the stream start

	last := lastEventID(r)
	st.mu.Lock()
	st.subs++
	st.mu.Unlock()
	defer func() {
		st.mu.Lock()
		st.subs--
		st.mu.Unlock()
	}()

	heartbeat := time.NewTimer(sseHeartbeat)
	defer heartbeat.Stop()
	for {
		st.mu.Lock()
		var batch []dmfwire.StreamAlert
		for _, a := range st.alerts {
			if a.ID > last {
				batch = append(batch, a)
			}
		}
		state := st.state
		final := st.infoLocked()
		notify := st.notify
		st.mu.Unlock()

		if len(batch) > 0 || state != streamOpen {
			_ = rc.SetWriteDeadline(time.Now().Add(sseWriteTimeout))
		}
		for _, a := range batch {
			if err := writeSSE(w, a.ID, dmfwire.SSEEventAlert, a); err != nil {
				return
			}
			last = a.ID
		}
		switch state {
		case streamSealed:
			// Terminal frame: reuse the last alert id so a client that
			// reconnects after seeing it replays nothing.
			_ = writeSSE(w, last, dmfwire.SSEEventSealed, final)
			_ = rc.Flush()
			return
		case streamAborted:
			return
		}
		if len(batch) > 0 {
			if err := rc.Flush(); err != nil {
				return
			}
			_ = rc.SetWriteDeadline(time.Time{})
		}

		if !heartbeat.Stop() {
			select {
			case <-heartbeat.C:
			default:
			}
		}
		heartbeat.Reset(sseHeartbeat)
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		case <-heartbeat.C:
			_ = rc.SetWriteDeadline(time.Now().Add(sseWriteTimeout))
			if _, err := io.WriteString(w, ": keepalive\n\n"); err != nil {
				return
			}
			if err := rc.Flush(); err != nil {
				return
			}
			_ = rc.SetWriteDeadline(time.Time{})
		}
	}
}
