package dmfwire

import "perfknow/internal/rules"

// This file defines the streaming-ingestion wire protocol: a trial is no
// longer only uploaded whole — a client may open a stream, append chunks of
// profile data with sequence numbers, and finally seal the stream, at which
// point the accumulated data becomes a normal stored trial, byte-identical
// to a whole-file upload of the same data. While a stream is open, standing
// diagnoses (rule sets registered at open) run incrementally over a sliding
// window of recent chunks, and their findings are delivered as alerts over
// an SSE subscription (GET /api/v1/streams/{id}/alerts).
//
// Its routes are the stream rows of routes.go: open takes a StreamOpen,
// append a StreamChunk (→ AppendAck), and seal answers an UploadSummary.

// HeaderLastEventID is the standard SSE resume header: a subscriber that
// reconnects sends the id of the last alert it received, and the server
// replays only alerts with greater ids — no duplicates, no gaps (within
// the per-stream retention window).
const HeaderLastEventID = "Last-Event-ID"

// SSEContentType is the media type of the alert subscription response.
const SSEContentType = "text/event-stream"

// SSE event names on the alert subscription.
const (
	// SSEEventAlert carries one StreamAlert as JSON data.
	SSEEventAlert = "alert"
	// SSEEventSealed is the terminal event: the stream was sealed into a
	// trial and no further alerts will ever be produced. Its data is the
	// final StreamInfo.
	SSEEventSealed = "sealed"
)

// StreamOpen is the POST /api/v1/streams request body: the coordinates and
// shape of the trial being streamed, plus the standing-diagnosis
// configuration.
type StreamOpen struct {
	App        string `json:"app"`
	Experiment string `json:"experiment"`
	Trial      string `json:"trial"`
	Threads    int    `json:"threads"`
	// Metrics registers the metric names the stream will carry, in order.
	// Chunks may only reference registered metrics; the sealed trial's
	// metric order is exactly this order.
	Metrics []string `json:"metrics"`
	// Window is the sliding-window size in chunks for standing analysis:
	// rule facts are computed over the trailing Window chunks. 0 asks for
	// the server's default window; a negative value asks for a cumulative
	// window (never slides; every chunk stays in view). The sealed trial
	// always contains ALL appended data regardless.
	Window int `json:"window,omitempty"`
	// Rules names .prl rule files (from the server's rules directory, e.g.
	// "LoadBalanceRules.prl") to register as standing diagnoses. Empty
	// means the server's default standing rule set (possibly none).
	Rules []string `json:"rules,omitempty"`
	// Metric selects the diagnosis metric the sliding window tracks
	// (default TIME, falling back to the first registered metric).
	Metric string `json:"metric,omitempty"`
}

// StreamInfo describes one stream: the open parameters plus live progress.
type StreamInfo struct {
	ID         string   `json:"id"`
	App        string   `json:"app"`
	Experiment string   `json:"experiment"`
	Trial      string   `json:"trial"`
	Threads    int      `json:"threads"`
	Metrics    []string `json:"metrics"`
	Window     int      `json:"window"`
	Rules      []string `json:"rules,omitempty"`
	Metric     string   `json:"metric"`
	// State is "open" or "sealed".
	State string `json:"state"`
	// LastSeq is the highest chunk sequence number applied so far.
	LastSeq int64 `json:"last_seq"`
	// Events is the number of distinct events accumulated so far.
	Events int `json:"events"`
	// Alerts is the total number of standing-diagnosis alerts produced.
	Alerts int64 `json:"alerts"`
}

// StreamList is the GET /api/v1/streams response body.
type StreamList struct {
	Streams []StreamInfo `json:"streams"`
}

// ChunkEvent is one event's contribution within a chunk: per-thread values
// that are ACCUMULATED (added) into the growing trial, exactly as repeated
// perfdmf.Event.AddValue calls would. Slices must have exactly Threads
// entries (or be absent). An event may appear in many chunks; its totals
// are the seq-ordered sums, which is what makes a sealed stream
// byte-identical to a whole upload of the same accumulated data.
type ChunkEvent struct {
	Name string `json:"name"`
	// Groups is recorded when the event is first seen; later occurrences
	// may omit it.
	Groups    []string             `json:"groups,omitempty"`
	Calls     []float64            `json:"calls,omitempty"`
	Inclusive map[string][]float64 `json:"inclusive,omitempty"`
	Exclusive map[string][]float64 `json:"exclusive,omitempty"`
}

// StreamChunk is the POST /api/v1/streams/{id}/chunks request body. Seq
// numbers start at 1 and must arrive densely in order: the server applies
// chunk N+1 only after chunk N. A replayed seq (≤ the last applied) is
// acknowledged idempotently without being re-applied, so append retries
// are exactly-once; a seq that skips ahead is rejected with 409.
type StreamChunk struct {
	Seq    int64        `json:"seq"`
	Events []ChunkEvent `json:"events"`
}

// AppendAck acknowledges one applied (or replayed) chunk.
type AppendAck struct {
	Stream string `json:"stream"`
	Seq    int64  `json:"seq"`
	// Duplicate marks a retried seq (seq <= the last applied): the chunk
	// had already been applied and was NOT re-applied; Events and Alerts
	// are the stream's counts at the time of the retry.
	Duplicate bool `json:"duplicate,omitempty"`
	// Events is the number of distinct events accumulated so far.
	Events int `json:"events"`
	// Alerts is the total number of alerts produced so far (including ones
	// fired by this chunk).
	Alerts int64 `json:"alerts"`
}

// StreamAlert is one standing-diagnosis finding: a rule fired because the
// sliding window's facts changed. Alerts are numbered 1.. per stream; the
// id doubles as the SSE event id for Last-Event-ID resume.
type StreamAlert struct {
	ID     int64  `json:"id"`
	Stream string `json:"stream"`
	// Seq is the chunk whose delta fired the rule.
	Seq  int64  `json:"seq"`
	Rule string `json:"rule"`
	// Output is the rule's println lines, byte-identical to what the same
	// firing would print in a batch diagnosis run.
	Output          []string               `json:"output,omitempty"`
	Recommendations []rules.Recommendation `json:"recommendations,omitempty"`
}
