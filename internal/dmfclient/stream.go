package dmfclient

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"perfknow/internal/dmfwire"
	"perfknow/internal/faults"
	"perfknow/internal/obs"
)

// Streaming ingestion: OpenStream starts a server-side stream, Append
// pushes chunks with dense sequence numbers (safe to retry — the server
// acknowledges replayed seqs without re-applying them), Seal turns the
// accumulation into a stored trial byte-identical to a whole upload, and
// SubscribeAlerts follows the stream's standing-diagnosis alerts over SSE,
// transparently reconnecting with Last-Event-ID so the caller sees every
// alert exactly once, in order.

// StreamOption customizes OpenStream.
type StreamOption func(*dmfwire.StreamOpen)

// WithStreamWindow sets the sliding-window size in chunks for standing
// analysis. chunks < 1 requests a cumulative window (never slides); leaving
// the option off uses the server's default.
func WithStreamWindow(chunks int) StreamOption {
	return func(o *dmfwire.StreamOpen) {
		if chunks < 1 {
			o.Window = -1
		} else {
			o.Window = chunks
		}
	}
}

// WithStandingRules registers the named .prl rule files (from the server's
// rules directory) as standing diagnoses on the stream.
func WithStandingRules(names ...string) StreamOption {
	return func(o *dmfwire.StreamOpen) { o.Rules = append([]string(nil), names...) }
}

// WithStreamMetric selects the diagnosis metric the sliding window tracks
// (default: TIME when registered, else the first metric).
func WithStreamMetric(metric string) StreamOption {
	return func(o *dmfwire.StreamOpen) { o.Metric = metric }
}

// OpenStream opens a streaming upload for the trial at the given
// coordinates. The open is idempotent per call (a retried request does not
// open two streams).
func (c *Client) OpenStream(ctx context.Context, app, experiment, trial string, threads int, metrics []string, opts ...StreamOption) (*dmfwire.StreamInfo, error) {
	open := dmfwire.StreamOpen{
		App:        app,
		Experiment: experiment,
		Trial:      trial,
		Threads:    threads,
		Metrics:    append([]string(nil), metrics...),
	}
	for _, o := range opts {
		o(&open)
	}
	return fetch[dmfwire.StreamInfo](ctx, c, request{route: dmfwire.OpenStream, in: open})
}

// Append pushes one chunk onto the stream. Seqs start at 1 and must be
// dense; the call is idempotent — the seq is the dedup key, so a retry
// whose original ack was lost is acknowledged with Duplicate set and the
// data is not re-applied.
func (c *Client) Append(ctx context.Context, streamID string, seq int64, events []dmfwire.ChunkEvent) (*dmfwire.AppendAck, error) {
	return fetch[dmfwire.AppendAck](ctx, c, request{route: dmfwire.AppendChunk, args: []string{streamID},
		in: dmfwire.StreamChunk{Seq: seq, Events: events}})
}

// Seal closes the stream: the accumulated data becomes a stored trial,
// byte-identical to uploading it whole. Sealing is idempotent.
func (c *Client) Seal(ctx context.Context, streamID string) (*dmfwire.UploadSummary, error) {
	return fetch[dmfwire.UploadSummary](ctx, c, request{route: dmfwire.SealStream, args: []string{streamID}, in: struct{}{}})
}

// Stream fetches one stream's info. Unknown ids wrap perfdmf.ErrNotFound.
func (c *Client) Stream(ctx context.Context, streamID string) (*dmfwire.StreamInfo, error) {
	return fetch[dmfwire.StreamInfo](ctx, c, request{route: dmfwire.GetStream, args: []string{streamID}})
}

// Streams lists the server's live and recently sealed streams.
func (c *Client) Streams(ctx context.Context) ([]dmfwire.StreamInfo, error) {
	var resp dmfwire.StreamList
	if err := c.doCtx(ctx, request{route: dmfwire.ListStreams}, &resp); err != nil {
		return nil, err
	}
	return resp.Streams, nil
}

// AbortStream deletes an open stream without sealing it; nothing is stored.
func (c *Client) AbortStream(ctx context.Context, streamID string) error {
	return c.doCtx(ctx, request{route: dmfwire.AbortStream, args: []string{streamID}}, nil)
}

// SubscribeOption customizes SubscribeAlerts.
type SubscribeOption func(*subscribeConfig)

type subscribeConfig struct {
	lastEventID int64
	buffer      int
}

// WithLastEventID resumes the subscription after a previously seen alert
// id, exactly as an SSE reconnect would.
func WithLastEventID(id int64) SubscribeOption {
	return func(cfg *subscribeConfig) { cfg.lastEventID = id }
}

// WithAlertBuffer sizes the subscription's delivery channel (default 16).
// When it fills, delivery applies backpressure to the read loop; the server
// retains its side regardless, so a slow consumer delays alerts rather
// than dropping them.
func WithAlertBuffer(n int) SubscribeOption {
	return func(cfg *subscribeConfig) {
		if n > 0 {
			cfg.buffer = n
		}
	}
}

// AlertSubscription is a live standing-diagnosis subscription. Alerts
// arrive on Alerts() in id order with no duplicates and no gaps, across
// transparent reconnects; the channel closes when the stream is sealed
// (Final reports the closing StreamInfo, Err stays nil), when the
// subscription fails permanently (Err reports why), or after Close.
type AlertSubscription struct {
	alerts chan dmfwire.StreamAlert
	done   chan struct{}
	cancel context.CancelFunc

	mu     sync.Mutex
	err    error
	final  *dmfwire.StreamInfo
	lastID int64
	closed bool
}

// Alerts is the delivery channel; it closes when the subscription ends.
func (s *AlertSubscription) Alerts() <-chan dmfwire.StreamAlert { return s.alerts }

// Err reports why the subscription ended, nil for a clean end (seal or
// Close). Valid after Alerts() closes.
func (s *AlertSubscription) Err() error {
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Final returns the sealed stream's closing info, nil if the subscription
// ended before the seal. Valid after Alerts() closes.
func (s *AlertSubscription) Final() *dmfwire.StreamInfo {
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.final
}

// LastEventID reports the id of the last delivered alert — the resume
// point for a future SubscribeAlerts(..., WithLastEventID(...)).
func (s *AlertSubscription) LastEventID() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastID
}

// Close ends the subscription and waits for its reader to finish. Safe to
// call concurrently with channel reads and more than once.
func (s *AlertSubscription) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	<-s.done
}

// SubscribeAlerts opens the stream's SSE alert subscription
// (GET /api/v1/streams/{id}/alerts). The returned subscription reconnects
// on transport failures with the client's retry backoff, resuming via
// Last-Event-ID so no alert is duplicated or dropped; RetryPolicy's
// MaxAttempts bounds *consecutive* failed connections (any delivered event
// resets the count).
func (c *Client) SubscribeAlerts(ctx context.Context, streamID string, opts ...SubscribeOption) (*AlertSubscription, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg := subscribeConfig{buffer: 16}
	for _, o := range opts {
		o(&cfg)
	}
	ctx, cancel := context.WithCancel(c.traceCtx(ctx))
	sub := &AlertSubscription{
		alerts: make(chan dmfwire.StreamAlert, cfg.buffer),
		done:   make(chan struct{}),
		cancel: cancel,
		lastID: cfg.lastEventID,
	}
	go sub.run(ctx, c, dmfwire.SubscribeAlerts.Path(streamID))
	return sub, nil
}

// run is the subscription's reader loop: connect, consume frames, and on
// any failure reconnect with backoff from the last delivered id.
func (s *AlertSubscription) run(ctx context.Context, c *Client, path string) {
	defer close(s.done)
	defer close(s.alerts)
	fails := 0
	for {
		progressed, err := s.consume(ctx, c, path, fails)
		if err == nil {
			return // sealed (or aborted server-side): clean end
		}
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		if closed || ctx.Err() != nil {
			// The subscriber hung up; that is not a failure.
			return
		}
		var permanent *permanentSubError
		if errors.As(err, &permanent) {
			s.fail(err)
			return
		}
		if progressed {
			fails = 0
		}
		fails++
		if fails >= c.retry.MaxAttempts {
			s.fail(fmt.Errorf("dmfclient: subscribe %s: giving up after %d consecutive failed connections: %w", path, fails, err))
			return
		}
		delay := c.retry.backoff(http.MethodGet, path, fails-1, 0)
		if sleepCtx(ctx, delay) != nil {
			return
		}
	}
}

func (s *AlertSubscription) fail(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = err
	}
}

// permanentSubError marks failures no reconnect can fix (404, 4xx).
type permanentSubError struct{ err error }

func (e *permanentSubError) Error() string { return e.err.Error() }
func (e *permanentSubError) Unwrap() error { return e.err }

// consume runs one SSE connection to completion. It returns nil when the
// stream ended cleanly (sealed event), and otherwise an error plus whether
// any event was delivered on this connection (progress resets the
// consecutive-failure count).
func (s *AlertSubscription) consume(ctx context.Context, c *Client, path string, attempt int) (progressed bool, err error) {
	_, sp := obs.StartSpan(ctx, "dmfclient GET "+path, "attempt", strconv.Itoa(attempt))
	defer func() {
		sp.SetError(err)
		sp.End()
	}()
	c.attempts.Inc()
	if attempt > 0 {
		c.retries.Inc()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.endpoint(path, nil), nil)
	if err != nil {
		return false, &permanentSubError{fmt.Errorf("dmfclient: build request: %w", err)}
	}
	req.Header.Set("Accept", dmfwire.SSEContentType)
	req.Header.Set(faults.HeaderRetryAttempt, strconv.Itoa(attempt))
	if last := s.LastEventID(); last > 0 {
		req.Header.Set(dmfwire.HeaderLastEventID, strconv.FormatInt(last, 10))
	}
	obs.Inject(req.Header, sp)
	// The subscription outlives any sane request timeout: bypass the
	// pooled client's Timeout with a transport-preserving copy.
	httpc := *c.http
	httpc.Timeout = 0
	resp, err := httpc.Do(req)
	if err != nil {
		return false, fmt.Errorf("dmfclient: subscribe %s: %w", path, err)
	}
	defer resp.Body.Close()
	sp.SetAttr("status", strconv.Itoa(resp.StatusCode))
	if resp.StatusCode != http.StatusOK {
		err, retryable := statusError("subscribe "+path, resp)
		if !retryable {
			err = &permanentSubError{err}
		}
		return false, err
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, dmfwire.SSEContentType) {
		return false, fmt.Errorf("dmfclient: subscribe %s: unexpected content type %q", path, ct)
	}

	var frame sseFrame
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			done, delivered, derr := s.dispatch(ctx, frame)
			frame = sseFrame{}
			if derr != nil {
				return progressed, derr
			}
			progressed = progressed || delivered
			if done {
				return progressed, nil
			}
		case strings.HasPrefix(line, ":"):
			// comment / keepalive
		default:
			frame.add(line)
		}
	}
	if err := sc.Err(); err != nil {
		return progressed, fmt.Errorf("dmfclient: subscribe %s: read: %w", path, err)
	}
	// EOF without a sealed event: the connection was cut; reconnect.
	return progressed, fmt.Errorf("dmfclient: subscribe %s: connection closed mid-stream: %w", path, io.ErrUnexpectedEOF)
}

// sseFrame accumulates one event's fields between blank lines.
type sseFrame struct {
	id    string
	event string
	data  strings.Builder
}

func (f *sseFrame) add(line string) {
	field, value, _ := strings.Cut(line, ":")
	value = strings.TrimPrefix(value, " ")
	switch field {
	case "id":
		f.id = value
	case "event":
		f.event = value
	case "data":
		if f.data.Len() > 0 {
			f.data.WriteByte('\n')
		}
		f.data.WriteString(value)
	}
}

// dispatch delivers one completed frame. done means the stream ended
// cleanly; delivered means an event was handed to the subscriber (or
// deliberately skipped as an already-seen replay).
func (s *AlertSubscription) dispatch(ctx context.Context, frame sseFrame) (done, delivered bool, err error) {
	switch frame.event {
	case dmfwire.SSEEventAlert:
		var alert dmfwire.StreamAlert
		if uerr := json.Unmarshal([]byte(frame.data.String()), &alert); uerr != nil {
			// A garbled frame usually means the connection was cut
			// mid-event; reconnect and replay it whole.
			return false, false, fmt.Errorf("dmfclient: decode alert event: %w", uerr)
		}
		s.mu.Lock()
		seen := alert.ID <= s.lastID
		s.mu.Unlock()
		if seen {
			// Replay overlap after a reconnect; already delivered.
			return false, true, nil
		}
		select {
		case s.alerts <- alert:
		case <-ctx.Done():
			return false, false, ctx.Err()
		}
		s.mu.Lock()
		s.lastID = alert.ID
		s.mu.Unlock()
		return false, true, nil
	case dmfwire.SSEEventSealed:
		var info dmfwire.StreamInfo
		if uerr := json.Unmarshal([]byte(frame.data.String()), &info); uerr != nil {
			return false, false, fmt.Errorf("dmfclient: decode sealed event: %w", uerr)
		}
		s.mu.Lock()
		s.final = &info
		s.mu.Unlock()
		return true, true, nil
	default:
		// Unknown event types are ignored for forward compatibility.
		return false, false, nil
	}
}

// WatchAlerts is a convenience wrapper: it subscribes, invokes fn for every
// alert, and returns when the stream seals (nil), the context ends, or the
// subscription fails. It is what `perfexplorer -watch` runs on.
func (c *Client) WatchAlerts(ctx context.Context, streamID string, fn func(dmfwire.StreamAlert), opts ...SubscribeOption) (*dmfwire.StreamInfo, error) {
	sub, err := c.SubscribeAlerts(ctx, streamID, opts...)
	if err != nil {
		return nil, err
	}
	defer sub.Close()
	for alert := range sub.Alerts() {
		fn(alert)
	}
	if err := sub.Err(); err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	return sub.Final(), nil
}
