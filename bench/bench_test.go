package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// smokeOptions is a run small enough for go test: 0.2 s of warm-up, one
// round of a 0.3 s open-loop and a 0.3 s closed-loop segment, one set-up, a
// 20-op traced sample.
func smokeOptions(t *testing.T, workload string, trace bool) Options {
	return Options{
		Workload: workload, Seed: 7, Seconds: 0.8, Rounds: 1, Trace: trace,
		WorkDir: t.TempDir(), Sample: 20, MaxSetups: 1,
	}
}

// checkMetrics fails unless got holds exactly the metrics want names, each
// with its unit and a finite, non-negative value.
func checkMetrics(t *testing.T, got map[string]Metric, want []MetricSpec) {
	t.Helper()
	names := make(map[string]bool, len(want))
	for _, ms := range want {
		names[ms.Name] = true
		m, ok := got[ms.Name]
		switch {
		case !ok:
			t.Errorf("metric %s of BENCHMARK.json is missing", ms.Name)
		case m.Unit == "" || m.Unit != ms.Unit:
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", ms.Name, m.Unit, ms.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0:
			t.Errorf("metric %s = %v", ms.Name, m.Value)
		}
	}
	for name := range got {
		if !names[name] {
			t.Errorf("metric %s is emitted but BENCHMARK.json does not name it", name)
		}
	}
}

// smokeReports keeps TestSmoke's reports so TestCountsRepeat needs only one
// more run of each kind to compare against.
var smokeReports = map[string]*Report{}

// TestSmoke runs all five workloads, untraced and traced, and checks that
// every oracle passes and that the metrics printed are exactly the ones
// BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	spec, err := LoadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	for i, wl := range spec.Workloads {
		w := workloads[i]
		if wl.Name != w.name || wl.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, wl.Name, wl.Why, w.name, w.why)
		}
		// BENCHMARK.json admits no keys of its own for the per-workload
		// constants, so each why states them.
		consts := fmt.Sprintf("closed loop only; limit %g ms", w.limitMs)
		if !w.closedOnly {
			consts = fmt.Sprintf("open loop %g ops/s, limit %g ms", w.openRate, w.limitMs)
		}
		if !strings.HasSuffix(wl.Why, consts) {
			t.Errorf("workload %s: why %q does not end with its constants %q", w.name, wl.Why, consts)
		}
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				rep, err := Run(smokeOptions(t, w.name, trace))
				if err != nil {
					t.Fatal(err)
				}
				smokeReports[fmt.Sprintf("%s/%v", w.name, trace)] = rep
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d errors=%v", rep.Correct, rep.Attempted, rep.Failed, rep.Errors)
				}
				if trace {
					checkMetrics(t, rep.Metrics, spec.PerLayer)
					if len(rep.Ledger) == 0 {
						t.Error("traced run produced no ledger")
					}
				} else {
					checkMetrics(t, rep.Metrics, spec.EndToEnd)
					for name, m := range rep.Metrics {
						if m.Value == 0 {
							t.Errorf("end-to-end metric %s is 0", name)
						}
					}
				}
			})
		}
	}
}

// TestSeedDeterminism: the same seed yields a byte-identical op schedule
// and byte-identical inputs; another seed yields different ones.
func TestSeedDeterminism(t *testing.T) {
	fingerprint := func(w *workload, seed int64) (sched, inputs string) {
		s := newSchedule(w, seed)
		for i := 0; i < 5000; i++ {
			_, o := s.draw()
			sched += fmt.Sprintf("%d.%d.%d;", o.kind, o.key, o.variant)
		}
		in, err := buildInputs(w, seed)
		if err != nil {
			t.Fatal(err)
		}
		var parts []any
		if in.ks != nil {
			parts = append(parts, in.ks.variants)
		}
		parts = append(parts, in.m, in.cycle, in.diag, in.ana)
		data, err := json.Marshal(parts)
		if err != nil {
			t.Fatal(err)
		}
		return sched, string(data)
	}
	for _, w := range workloads {
		s1, i1 := fingerprint(w, 11)
		s2, i2 := fingerprint(w, 11)
		if s1 != s2 || i1 != i2 {
			t.Errorf("%s: seed 11 gave two different schedules or inputs", w.name)
		}
		s3, i3 := fingerprint(w, 12)
		if len(w.mix) > 1 && s1 == s3 {
			t.Errorf("%s: seeds 11 and 12 gave the same schedule", w.name)
		}
		if w.name != "study_pipeline" && i1 == i3 {
			t.Errorf("%s: seeds 11 and 12 gave the same inputs", w.name)
		}
	}
}

// TestCountsRepeat: the count metrics repeat exactly across two traced
// runs, and bytes stored per user byte across two untraced ones.
func TestCountsRepeat(t *testing.T) {
	counts := []string{
		"vfs.ops_per_save", "vfs.fsyncs_per_save", "vfs.bytes_written_per_user_byte", "vfs.reads_per_get_cold",
		"vfs.ops_per_list", "cluster.backend_calls_per_save", "cluster.backend_calls_per_get",
		"cluster.backend_calls_per_list", "cluster.replicas_per_trial_end", "dmfwire.json_bytes_L",
	}
	// again runs the workload once more, or twice when TestSmoke did not
	// run before this test.
	again := func(workload string, trace bool) [2]*Report {
		pair := [2]*Report{smokeReports[fmt.Sprintf("%s/%v", workload, trace)]}
		for i := range pair {
			if pair[i] != nil {
				continue
			}
			rep, err := Run(smokeOptions(t, workload, trace))
			if err != nil {
				t.Fatal(err)
			}
			pair[i] = rep
		}
		return pair
	}
	traced := again("cluster_rw", true)
	for _, name := range counts {
		a, b := traced[0].Metrics[name].Value, traced[1].Metrics[name].Value
		if a != b || a == 0 {
			t.Errorf("%s: %v then %v", name, a, b)
		}
	}
	if got := traced[0].Metrics["cluster.replicas_per_trial_end"].Value; got != 2 {
		t.Errorf("cluster.replicas_per_trial_end = %v, want 2", got)
	}
	untraced := again("ingest_small", false)
	a, b := untraced[0].Metrics["disk_bytes_per_user_byte"].Value, untraced[1].Metrics["disk_bytes_per_user_byte"].Value
	if a != b || a == 0 {
		t.Errorf("disk_bytes_per_user_byte: %v then %v", a, b)
	}
}

// emptyLister is a target whose listings come back empty.
type emptyLister struct{ target }

func (emptyLister) ListTrials(app, experiment string) ([]string, error) { return nil, nil }

// TestEmptyListingFails: a listing without names is a failed op, not a panic.
func TestEmptyListingFails(t *testing.T) {
	w, err := findWorkload("ingest_small")
	if err != nil {
		t.Fatal(err)
	}
	in, err := buildInputs(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := &system{w: w, in: in, target: emptyLister{}}
	if _, err := s.do(context.Background(), op{kind: opList}, time.Now(), nil); err == nil {
		t.Error("an empty listing passed the reply check")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4)
	if q1, _, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of three = %v..%v, want 1..3", q1, q3)
	}
}
