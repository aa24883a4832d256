package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the line a run prints last: exactly these four keys.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Report is a Result plus what the human-readable output and the recorded
// baselines add to it.
type Report struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	Result
	// Health holds the ungated tail.* and loadgen.* values of an untraced
	// run (a traced run reports them as per-layer metrics instead).
	Health map[string]Metric `json:"health,omitempty"`
	// Ledger is "where a request's time goes": per op kind, the p50 of the
	// replayed op and the self time of each layer along its blocking path.
	Ledger map[string]map[string]float64 `json:"ledger_ms,omitempty"`
	Errors []string                      `json:"errors,omitempty"`
}

// MetricSpec is one metric entry of BENCHMARK.json.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Spec is BENCHMARK.json.
type Spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []MetricSpec `json:"end_to_end"`
	PerLayer []MetricSpec `json:"per_layer"`
}

// LoadSpec reads BENCHMARK.json.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// endToEndUnits and perLayerUnits name every metric the harness emits,
// with its unit. BENCHMARK.json adds direction and bound; the smoke test
// checks the two agree name for name.
var endToEndUnits = map[string]string{
	"setup_s":                  "s",
	"disk_bytes_per_user_byte": "ratio",
}

var perLayerUnits = map[string]string{
	"loadgen.late_p95_ms": "ms", "loadgen.round_spread_pct": "%", "loadgen.calib_cpu_ms": "ms",
	"loadgen.calib_fsync_ms": "ms", "loadgen.ops_failed_pct": "%", "trace.overhead_pct": "%",
	"tail.ops_per_s": "ops/s", "tail.cpu_ms_per_op": "ms", "tail.p50_ms": "ms", "tail.read_p50_ms": "ms",
	"tail.write_p50_ms": "ms", "tail.compute_p50_ms": "ms", "tail.alert_p50_ms": "ms",
	"tail.p95_ms": "ms", "tail.p99_ms": "ms", "tail.max_ms": "ms", "tail.within_limit_pct": "%",
	"process.rss_peak_mb": "mb", "process.alloc_kb_per_op": "kb", "process.allocs_per_op": "count",
	"process.gc_pause_ms_total": "ms",
	"dmfclient.call_ms":         "ms", "dmfclient.self_ms": "ms", "dmfclient.attempts_per_op": "count",
	"dmfclient.req_bytes_per_op": "bytes", "dmfclient.resp_bytes_per_op": "bytes",
	"net.self_ms":         "ms",
	"dmfserver.upload_ms": "ms", "dmfserver.get_ms": "ms", "dmfserver.list_ms": "ms",
	"dmfserver.diagnose_ms": "ms", "dmfserver.analyze_ms": "ms", "dmfserver.append_ms": "ms",
	"dmfserver.seal_ms": "ms", "dmfserver.self_ms": "ms", "dmfserver.shed_per_kop": "count",
	"dmfserver.standing_append_us": "us", "dmfserver.alerts_per_kchunk": "count",
	"parallel.waiting_max":     "count",
	"dmfwire.json_encode_S_ms": "ms", "dmfwire.json_decode_S_ms": "ms", "dmfwire.json_encode_L_ms": "ms",
	"dmfwire.json_decode_L_ms": "ms", "dmfwire.json_bytes_L": "bytes",
	"perfdmf.save_S_ms": "ms", "perfdmf.save_L_ms": "ms", "perfdmf.save_self_ms": "ms",
	"perfdmf.get_cold_L_ms": "ms", "perfdmf.get_warm_L_ms": "ms", "perfdmf.list_ms": "ms",
	"perfdmf.clone_L_ms": "ms", "perfdmf.columnar_encode_L_ms": "ms", "perfdmf.columnar_decode_L_ms": "ms",
	"perfdmf.window_append_us": "us",
	"vfs.ops_per_save":         "count", "vfs.fsyncs_per_save": "count", "vfs.busy_ms_per_save": "ms",
	"vfs.bytes_written_per_user_byte": "ratio", "vfs.reads_per_get_cold": "count", "vfs.ops_per_list": "count",
	"cluster.save_ms": "ms", "cluster.get_ms": "ms", "cluster.list_ms": "ms", "cluster.self_ms": "ms",
	"cluster.backend_calls_per_save": "count", "cluster.backend_calls_per_get": "count",
	"cluster.backend_calls_per_list": "count", "cluster.rerouted_per_kop": "count",
	"cluster.hints_pending_end": "count", "cluster.gossip_msgs_per_s": "1/s",
	"cluster.replicas_per_trial_end": "count",
	"script.compile_ms":              "ms", "script.run_ms": "ms",
	"rules.fire_ms": "ms", "rules.firings_per_diagnose": "count", "rules.standing_step_us": "us",
	"analysis.op_ms": "ms", "diagnosis.facts_ms": "ms", "core.diagnose_ms": "ms", "core.analyse_ms": "ms",
	"sim.simulate_ms": "ms", "sim.share_pct": "%", "sim.allocs_per_iter": "count",
	"obs.span_ns": "ns",
}

// metricSet collects values against one of the unit tables, so a metric
// cannot be emitted without a unit or under a name the tables lack.
type metricSet struct {
	units map[string]string
	out   map[string]Metric
}

func newMetricSet(units map[string]string) *metricSet {
	return &metricSet{units: units, out: make(map[string]Metric, len(units))}
}

func (m *metricSet) set(name string, v float64) {
	unit, ok := m.units[name]
	if !ok {
		panic("bench: metric " + name + " is not in the unit table")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m.out[name] = Metric{Value: v, Unit: unit}
}

// complete fills every metric the run did not measure with 0, so a traced
// run always prints the whole per-layer list: a layer the workload
// bypasses reads 0.
func (m *metricSet) complete() map[string]Metric {
	for name, unit := range m.units {
		if _, ok := m.out[name]; !ok {
			m.out[name] = Metric{Unit: unit}
		}
	}
	return m.out
}
