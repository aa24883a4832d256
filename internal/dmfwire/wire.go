// Package dmfwire defines the HTTP/JSON protocol types shared by the
// perfdmfd service (internal/dmfserver) and its client library
// (internal/dmfclient). Keeping them in a leaf package lets clients link
// only the profile data model, not the server's analysis stack.
package dmfwire

import (
	"perfknow/internal/analysis"
	"perfknow/internal/obs"
	"perfknow/internal/perfdmf"
	"perfknow/internal/rules"
)

// HeaderIdempotencyKey carries the client-generated idempotency key on
// trial uploads. The server remembers recently seen keys and replays the
// original response for duplicates, so a POST retried after a lost
// response stores the trial exactly once.
const HeaderIdempotencyKey = "Idempotency-Key"

// TrialContentType is the media type of a trial in its encoded form
// (perfdmf.EncodeTrial: the %PDMFCOL5 columnar payload inside the
// CRC-checked %PDMF1 envelope, the same bytes the repository stores).
// GET .../trials/{trial} answers with it when the request's Accept header
// names it, and POST /api/v1/trials accepts it as a Content-Type (a body in
// the previous encoding, %PDMFCOL4, is accepted too and stored re-encoded;
// one in an encoding before that is answered 400); requests that name
// neither speak trial JSON as before.
const TrialContentType = "application/x-pdmf-trial"

// MaxTrialBody bounds one trial body in either representation: it is the
// daemon's default request-body cap, the cap on a hint's embedded trial,
// and the most a client reads of an encoded trial response.
const MaxTrialBody = 32 << 20

// UploadSummary acknowledges a stored trial.
type UploadSummary struct {
	Application string `json:"application"`
	Experiment  string `json:"experiment"`
	Name        string `json:"name"`
	Threads     int    `json:"threads"`
	Events      int    `json:"events"`
	Metrics     int    `json:"metrics"`
}

// TAUUpload is the wire form of a TAU text profile: the relative file
// paths (MULTI__<metric>/profile.N.0.0) and their contents, plus the
// coordinates to store the trial under.
type TAUUpload struct {
	App        string            `json:"app"`
	Experiment string            `json:"experiment"`
	Trial      string            `json:"trial"`
	Files      map[string]string `json:"files"`
}

// AnalyzeRequest selects one analysis operation over one stored trial.
type AnalyzeRequest struct {
	App        string `json:"app"`
	Experiment string `json:"experiment"`
	Trial      string `json:"trial"`
	// Op is one of "stats", "derive", "cluster", "topn", "loadbalance".
	Op string `json:"op"`
	// Metric names the metric for stats/cluster/topn/loadbalance.
	Metric string `json:"metric,omitempty"`
	// Inclusive switches stats from exclusive to inclusive values.
	Inclusive bool `json:"inclusive,omitempty"`
	// Lhs, Rhs, Operator define a derived metric ("+", "-", "*", "/").
	Lhs      string `json:"lhs,omitempty"`
	Rhs      string `json:"rhs,omitempty"`
	Operator string `json:"operator,omitempty"`
	// K is the cluster count for "cluster".
	K int `json:"k,omitempty"`
	// N bounds "topn".
	N int `json:"n,omitempty"`
}

// AnalyzeResponse carries the result of the selected operation; exactly
// one field (besides Metric) is populated.
type AnalyzeResponse struct {
	Stats       []analysis.EventStat   `json:"stats,omitempty"`
	Metric      string                 `json:"metric,omitempty"`
	Trial       *perfdmf.Trial         `json:"trial,omitempty"`
	Clustering  *analysis.Clustering   `json:"clustering,omitempty"`
	Events      []string               `json:"events,omitempty"`
	LoadBalance []analysis.LoadBalance `json:"loadbalance,omitempty"`
}

// DiagnoseRequest runs one diagnosis script server-side. Either Script (a
// built-in script name such as "load_balance" or "stalls_per_cycle",
// with or without the .pes suffix) or Source (inline script text) must be
// set. Args become the script's `args` list, conventionally
// [application, experiment, trial, ...].
type DiagnoseRequest struct {
	Script string   `json:"script,omitempty"`
	Source string   `json:"source,omitempty"`
	Args   []string `json:"args"`
}

// DiagnoseResponse is the remote twin of a local script run: Stdout is the
// byte-exact text a local session would have printed, and Output and
// Recommendations mirror the rule engine's structured result.
type DiagnoseResponse struct {
	Stdout          string                 `json:"stdout"`
	Output          []string               `json:"output,omitempty"`
	Recommendations []rules.Recommendation `json:"recommendations,omitempty"`
}

// FsckReport is the GET /api/v1/fsck response body and the output of
// `perfdmfd -fsck`: the result of a full consistency scan of the on-disk
// repository (readable trials, legacy-format trials, quarantined files,
// recovered temp files, scan errors, read-only state).
type FsckReport = perfdmf.FsckReport

// MetricsSchemaVersion identifies the telemetry schema served by
// GET /api/v1/metrics. Bump only with a compatibility note in
// docs/METRICS.md.
const MetricsSchemaVersion = 1

// Metrics is the GET /api/v1/metrics response body: a typed, versioned
// flattening of the server's obs.Registry. Metric keys are stable API —
// names carry their unit as a suffix (`_total` for counters, `_ms` / `_us`
// for durations) and label sets are folded into the key
// (`http_requests_total{route="GET /api/v1/trials"}`).
type Metrics struct {
	SchemaVersion int    `json:"schema_version"`
	Service       string `json:"service"`
	// UptimeSeconds is how long the registry (≈ the process) has been up.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Counters are monotonically increasing totals.
	Counters map[string]int64 `json:"counters"`
	// Gauges are instantaneous values (repository size, slots in use…).
	Gauges map[string]float64 `json:"gauges"`
	// Histograms hold fixed-bucket distributions; bucket keys are upper
	// bounds ("le") as decimal strings plus "+Inf", values cumulative.
	Histograms map[string]obs.HistogramValue `json:"histograms"`
}

// NewMetrics assembles the wire body from a registry snapshot.
func NewMetrics(service string, snap obs.Snapshot) *Metrics {
	return &Metrics{
		SchemaVersion: MetricsSchemaVersion,
		Service:       service,
		UptimeSeconds: snap.UptimeSeconds,
		Counters:      snap.Counters,
		Gauges:        snap.Gauges,
		Histograms:    snap.Histograms,
	}
}

// TraceList is the GET /api/v1/traces response body.
type TraceList struct {
	Traces []obs.TraceSummary `json:"traces"`
}

// TraceResponse is the GET /api/v1/traces/{id} response body; the same
// shape is written by `perfexplorer -trace out.json` (wrapped in a
// TraceFile).
type TraceResponse = obs.Trace

// TraceFile is the on-disk format written by `perfexplorer -trace`.
type TraceFile struct {
	Traces []obs.Trace `json:"traces"`
}
