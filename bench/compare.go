package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// Set is several runs of the same code with the same options: for every
// workload and metric, one value per run.
type Set struct {
	Seed    int64   `json:"seed"`
	Seconds float64 `json:"seconds"`
	Runs    int     `json:"runs"`
	// Values holds the gated end-to-end metrics, Health everything ungated
	// an untraced run reports: the timing metrics and tails (tail.*) and
	// the harness health (calibration probes, lateness).
	Values map[string]map[string][]float64 `json:"values"`
	Health map[string]map[string][]float64 `json:"health"`
}

// RunSet runs every named workload runs times, untraced.
func RunSet(opt Options, names []string, runs int, progress io.Writer) (*Set, error) {
	set := &Set{Seed: opt.Seed, Seconds: opt.Seconds, Runs: runs,
		Values: make(map[string]map[string][]float64), Health: make(map[string]map[string][]float64)}
	for i := 0; i < runs; i++ {
		for _, name := range names {
			opt.Workload, opt.Trace = name, false
			rep, err := Run(opt)
			if err != nil {
				return nil, fmt.Errorf("%s run %d: %w", name, i+1, err)
			}
			if !rep.Correct {
				return nil, fmt.Errorf("%s run %d: %d of %d ops failed: %v", name, i+1, rep.Failed, rep.Attempted, rep.Errors)
			}
			add := func(into map[string]map[string][]float64, from map[string]Metric) {
				if into[name] == nil {
					into[name] = make(map[string][]float64)
				}
				for metric, v := range from {
					into[name][metric] = append(into[name][metric], v.Value)
				}
			}
			add(set.Values, rep.Metrics)
			add(set.Health, rep.Health)
			fmt.Fprintf(progress, "run %d/%d %s: ops_per_s %.1f p50_ms %.3f\n", i+1, runs, name,
				rep.Health["tail.ops_per_s"].Value, rep.Health["tail.p50_ms"].Value)
		}
	}
	return set, nil
}

// Baseline is a recorded reference: an untraced set and one traced report
// per workload (bench/BENCH_service.json).
type Baseline struct {
	Untraced *Set      `json:"untraced"`
	Traced   []*Report `json:"traced"`
}

// WriteJSON stores a set or a baseline as indented JSON.
func WriteJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadSet loads a set written by WriteJSON.
func ReadSet(path string) (*Set, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Set
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// quartiles returns the first, second and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is what
// the benchmark's acceptance rule is stated in.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) < 2 {
		if len(s) == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	const n = 4
	m := len(s) + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = min(max(j, 1), len(s)-1)
		delta := float64(i*m - j*n)
		q[i-1] = (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return q[0], q[1], q[2]
}

// Compare prints one row per workload × end-to-end metric with both sets'
// medians, the ratio B/A, and a verdict under the metric's direction and
// bound from BENCHMARK.json:
//
//	regressed   B's median is worse than A's by more than the bound
//	unresolved  not regressed, but a set's own spread (IQR / median)
//	            exceeds the bound, so "unchanged" cannot be claimed —
//	            unless every run of B reads better than every run of A
//	ok          otherwise
//
// The ungated timing metrics (tail.*) follow with the same columns and the
// larger of the two sets' spreads in place of a verdict. It returns how
// many rows were regressed and how many unresolved.
func Compare(spec *Spec, a, b *Set, out io.Writer) (regressed, unresolved int) {
	fmt.Fprintf(out, "%-15s %-25s %-6s %12s %12s %9s %7s  %s\n",
		"workload", "metric", "unit", "A median", "B median", "B/A", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, ms := range spec.EndToEnd {
			av, bv := a.Values[wl.Name][ms.Name], b.Values[wl.Name][ms.Name]
			if len(av) == 0 || len(bv) == 0 {
				fmt.Fprintf(out, "%-15s %-25s missing from a set\n", wl.Name, ms.Name)
				unresolved++
				continue
			}
			am, bm, spread := medianAndSpread(av, bv)
			worse := (bm - am) / am
			if ms.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse > ms.Bound:
				verdict = "REGRESSED"
				regressed++
			case spread > ms.Bound && !allBetter(av, bv, ms.Better):
				verdict = fmt.Sprintf("unresolved (spread %.1f%%)", spread*100)
				unresolved++
			}
			fmt.Fprintf(out, "%-15s %-25s %-6s %12.4f %12.4f %9.4f %6.1f%%  %s\n",
				wl.Name, ms.Name, ms.Unit, am, bm, bm/am, ms.Bound*100, verdict)
		}
		for _, ms := range spec.PerLayer {
			av, bv := a.Health[wl.Name][ms.Name], b.Health[wl.Name][ms.Name]
			if !strings.HasPrefix(ms.Name, "tail.") || len(av) == 0 || len(bv) == 0 {
				continue
			}
			if am, bm, spread := medianAndSpread(av, bv); am > 0 && bm > 0 { // 0: the workload has no such op
				fmt.Fprintf(out, "%-15s %-25s %-6s %12.4f %12.4f %9.4f %7s  ungated (spread %.1f%%)\n",
					wl.Name, ms.Name, ms.Unit, am, bm, bm/am, "", spread*100)
			}
		}
		// A pair of sets whose fixed calibration work took visibly
		// different time did not see the same machine.
		for _, probe := range []string{"loadgen.calib_cpu_ms", "loadgen.calib_fsync_ms"} {
			_, am, _ := quartiles(a.Health[wl.Name][probe])
			_, bm, _ := quartiles(b.Health[wl.Name][probe])
			if am > 0 && (bm/am > 1.15 || bm/am < 1/1.15) {
				fmt.Fprintf(out, "%-15s noisy pair: %s %.3f vs %.3f (base A)\n", wl.Name, probe, am, bm)
			}
		}
	}
	return regressed, unresolved
}

// medianAndSpread returns both sets' medians and the larger of their
// spreads, IQR / median.
func medianAndSpread(av, bv []float64) (am, bm, spread float64) {
	aq1, am, aq3 := quartiles(av)
	bq1, bm, bq3 := quartiles(bv)
	return am, bm, max((aq3-aq1)/am, (bq3-bq1)/bm)
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(a, b []float64, better string) bool {
	amin, amax := a[0], a[0]
	for _, x := range a {
		amin, amax = min(amin, x), max(amax, x)
	}
	for _, x := range b {
		if (better == "higher" && x <= amax) || (better != "higher" && x >= amin) {
			return false
		}
	}
	return true
}
