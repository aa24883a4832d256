package diagnosis

import (
	"fmt"
	"math"
	"sort"

	"perfknow/internal/analysis"
	"perfknow/internal/perfdmf"
	"perfknow/internal/power"
	"perfknow/internal/rules"
)

// flatEvents returns the non-callpath events in trial order — the candidate
// set every fact builder walks, asserting as it goes, so fact IDs (and
// therefore rule activation tie-breaks) follow event order.
func flatEvents(t *perfdmf.Trial) []*perfdmf.Event {
	var evs []*perfdmf.Event
	for _, e := range t.Events {
		if !e.IsCallpath() {
			evs = append(evs, e)
		}
	}
	return evs
}

// Metric names the fact builders consume.
const (
	metricCycles   = "CPU_CYCLES"
	metricStalls   = "BACK_END_BUBBLE_ALL"
	metricStallL1D = "BE_L1D_FPU_BUBBLE_L1D"
	metricStallFP  = "BE_L1D_FPU_BUBBLE_FPU"
	metricFPOps    = "FP_OPS_RETIRED"
	metricL3Miss   = "L3_MISSES"
	metricRemote   = "REMOTE_MEMORY_ACCESSES"
	metricLocal    = "LOCAL_MEMORY_ACCESSES"
)

// severityIn returns the function giving an event's share of t's total
// runtime: mean exclusive TIME over the main event's mean inclusive TIME.
// The main event is found once, here, not once per event.
func severityIn(t *perfdmf.Trial) func(e *perfdmf.Event) float64 {
	metric := perfdmf.TimeMetric
	if !t.HasMetric(metric) {
		metric = metricCycles
	}
	total := 0.0
	if main := t.MainEvent(metric); main != nil {
		total = perfdmf.Mean(main.Inclusive[metric])
	}
	return func(e *perfdmf.Event) float64 {
		if total <= 0 {
			return 0
		}
		return perfdmf.Mean(e.Exclusive[metric]) / total
	}
}

// Inefficiency computes the paper's §III-B inefficiency metric for one
// event: FLOPs * (stall cycles / total cycles), from mean exclusive values.
func Inefficiency(t *perfdmf.Trial, e *perfdmf.Event) float64 {
	cyc := perfdmf.Mean(e.Exclusive[metricCycles])
	if cyc <= 0 {
		return 0
	}
	return perfdmf.Mean(e.Exclusive[metricFPOps]) * perfdmf.Mean(e.Exclusive[metricStalls]) / cyc
}

// AssertInefficiencyFacts computes the inefficiency metric for every flat
// event and asserts an InefficiencyFact per event, marked HIGHER when above
// the cross-event average. Returns the number of facts asserted.
func AssertInefficiencyFacts(eng *rules.Engine, t *perfdmf.Trial) (int, error) {
	for _, m := range []string{metricCycles, metricStalls, metricFPOps} {
		if !t.HasMetric(m) {
			return 0, fmt.Errorf("diagnosis: trial %q lacks metric %q", t.Name, m)
		}
	}
	evs := flatEvents(t)
	if len(evs) == 0 {
		return 0, fmt.Errorf("diagnosis: trial %q has no events", t.Name)
	}
	// The average has to exist before the first fact can say HIGHER or
	// LOWER, so this builder alone walks the events twice.
	vals := make([]float64, len(evs))
	sum := 0.0
	for i, e := range evs {
		vals[i] = Inefficiency(t, e)
		sum += vals[i]
	}
	avg := sum / float64(len(vals))
	severity := severityIn(t)
	for i, e := range evs {
		hl := "LOWER"
		if vals[i] > avg {
			hl = "HIGHER"
		} else if vals[i] == avg {
			hl = "EQUAL"
		}
		eng.Assert(rules.NewFact("InefficiencyFact", map[string]any{
			"eventName":   e.Name,
			"value":       vals[i],
			"average":     avg,
			"higherLower": hl,
			"severity":    severity(e),
		}))
	}
	return len(evs), nil
}

// AssertStallSourceFacts implements the second §III-B step: per event, the
// fraction of BACK_END_BUBBLE_ALL attributable to L1D cache misses and to
// floating point stalls, with the 90% concentration guideline encoded in
// the combinedFrac field.
func AssertStallSourceFacts(eng *rules.Engine, t *perfdmf.Trial) (int, error) {
	for _, m := range []string{metricStalls, metricStallL1D, metricStallFP} {
		if !t.HasMetric(m) {
			return 0, fmt.Errorf("diagnosis: trial %q lacks metric %q", t.Name, m)
		}
	}
	n, severity := 0, severityIn(t)
	for _, e := range flatEvents(t) {
		all := perfdmf.Mean(e.Exclusive[metricStalls])
		if all <= 0 {
			continue
		}
		l1d := perfdmf.Mean(e.Exclusive[metricStallL1D]) / all
		fp := perfdmf.Mean(e.Exclusive[metricStallFP]) / all
		eng.Assert(rules.NewFact("StallSourcesFact", map[string]any{
			"eventName":    e.Name,
			"l1dFrac":      l1d,
			"fpFrac":       fp,
			"combinedFrac": l1d + fp,
			"severity":     severity(e),
		}))
		n++
	}
	return n, nil
}

// MemoryStalls evaluates the §III-B latency-weighted memory stall formula
// for one event from its mean exclusive counters:
//
//	(L2refs-L2miss)*L2lat + (L2miss-L3miss)*L3lat +
//	(L3miss-remote)*LocalLat + remote*RemoteLat + TLBmiss*TLBpenalty
type MemoryStallCoefficients struct {
	L2Lat, L3Lat, LocalLat, RemoteLat, TLBPenalty float64
}

// AltixCoefficients returns the Itanium2/NUMAlink4 latency coefficients.
func AltixCoefficients() MemoryStallCoefficients {
	return MemoryStallCoefficients{L2Lat: 5, L3Lat: 14, LocalLat: 145, RemoteLat: 595, TLBPenalty: 25}
}

// MemoryStalls applies the formula to one event.
func MemoryStalls(e *perfdmf.Event, c MemoryStallCoefficients) float64 {
	l2refs := perfdmf.Mean(e.Exclusive["L2_DATA_REFERENCES_L2_ALL"])
	l2miss := perfdmf.Mean(e.Exclusive["L2_MISSES"])
	l3miss := perfdmf.Mean(e.Exclusive[metricL3Miss])
	remote := perfdmf.Mean(e.Exclusive[metricRemote])
	tlb := perfdmf.Mean(e.Exclusive["DTLB_MISSES"])
	return math.Max(l2refs-l2miss, 0)*c.L2Lat +
		math.Max(l2miss-l3miss, 0)*c.L3Lat +
		math.Max(l3miss-remote, 0)*c.LocalLat +
		remote*c.RemoteLat +
		tlb*c.TLBPenalty
}

// AssertLocalityFacts asserts a LocalityFact per flat event with the paper's
// remote memory access ratio (remote accesses / L3 misses).
func AssertLocalityFacts(eng *rules.Engine, t *perfdmf.Trial) (int, error) {
	for _, m := range []string{metricL3Miss, metricRemote} {
		if !t.HasMetric(m) {
			return 0, fmt.Errorf("diagnosis: trial %q lacks metric %q", t.Name, m)
		}
	}
	n, severity := 0, severityIn(t)
	for _, e := range flatEvents(t) {
		l3 := perfdmf.Mean(e.Exclusive[metricL3Miss])
		if l3 <= 0 {
			continue
		}
		remote := perfdmf.Mean(e.Exclusive[metricRemote])
		eng.Assert(rules.NewFact("LocalityFact", map[string]any{
			"eventName":   e.Name,
			"remoteRatio": remote / l3,
			"l3Misses":    l3,
			"memoryStall": MemoryStalls(e, AltixCoefficients()),
			"severity":    severity(e),
		}))
		n++
	}
	return n, nil
}

// AssertScalingFacts compares per-event inclusive times between a baseline
// trial (typically 1 thread) and a scaled trial, asserting a ScalingFact
// per event present in both: speedup, thread count, and runtime share in
// the scaled trial. Inclusive time is used so that regions serialized on
// the master (exchange_var) are judged by their true duration rather than
// by exclusive time hidden in nested events and barrier waits.
func AssertScalingFacts(eng *rules.Engine, base, scaled *perfdmf.Trial) int {
	metric := perfdmf.TimeMetric
	n, severity := 0, severityIn(scaled)
	for _, e := range flatEvents(scaled) {
		if e.Name == "main" {
			continue
		}
		be := base.Event(e.Name)
		if be == nil {
			continue
		}
		bv := maxPositive(be.Inclusive[metric])
		ov := maxPositive(e.Inclusive[metric])
		if bv <= 0 || ov <= 0 {
			continue
		}
		eng.Assert(rules.NewFact("ScalingFact", map[string]any{
			"eventName": e.Name,
			"speedup":   bv / ov,
			"threads":   float64(scaled.Threads),
			"severity":  severity(e),
		}))
		n++
	}
	return n
}

// maxPositive returns the largest value (events only present on some
// threads, like master-only regions, would otherwise be diluted by zeros).
func maxPositive(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// AssertSyncFacts asserts a SyncFact per flat event: the fraction of its
// cycles spent waiting on critical sections/locks and in barriers — the
// overhead sources the paper's future work targets for the parallel cost
// model. Events without cycle data are skipped.
func AssertSyncFacts(eng *rules.Engine, t *perfdmf.Trial) (int, error) {
	if !t.HasMetric(metricCycles) {
		return 0, fmt.Errorf("diagnosis: trial %q lacks metric %q", t.Name, metricCycles)
	}
	n, severity := 0, severityIn(t)
	for _, e := range flatEvents(t) {
		cyc := perfdmf.Mean(e.Exclusive[metricCycles])
		if cyc <= 0 {
			continue
		}
		critical := perfdmf.Mean(e.Exclusive["OMP_CRITICAL_CYCLES"])
		barrier := perfdmf.Mean(e.Exclusive["OMP_BARRIER_CYCLES"])
		eng.Assert(rules.NewFact("SyncFact", map[string]any{
			"eventName":    e.Name,
			"criticalFrac": critical / cyc,
			"barrierFrac":  barrier / cyc,
			"severity":     severity(e),
		}))
		n++
	}
	return n, nil
}

// AssertClusterFacts runs k-means over the threads of a trial (on per-event
// exclusive values of the metric) and asserts one ClusterFact per cluster —
// PerfExplorer's classic technique for spotting groups of threads with
// different behaviour (e.g. a master doing serialized copies while workers
// wait). A singleton cluster flags its thread as an outlier, along with the
// event dominating its centroid.
func AssertClusterFacts(eng *rules.Engine, t *perfdmf.Trial, metric string, k int) (int, error) {
	cl, err := analysis.KMeans(t, metric, k, 0)
	if err != nil {
		return 0, err
	}
	n := 0
	for c := 0; c < cl.K; c++ {
		member := -1
		for th, a := range cl.Assignment {
			if a == c {
				member = th
				break
			}
		}
		// Dominant event of the centroid.
		dom, domVal := "", -1.0
		for j, ev := range cl.Events {
			if cl.Centroids[c][j] > domVal {
				dom, domVal = ev, cl.Centroids[c][j]
			}
		}
		eng.Assert(rules.NewFact("ClusterFact", map[string]any{
			"cluster":        c,
			"size":           cl.Sizes[c],
			"singleton":      cl.Sizes[c] == 1,
			"memberThread":   member,
			"dominantEvent":  dom,
			"dominantWeight": domVal,
			"totalThreads":   t.Threads,
		}))
		n++
	}
	return n, nil
}

// AssertPowerFacts asserts one PowerFact per optimization level from power
// reports, marking the lowest-power, lowest-energy and balanced levels. The
// balanced level minimizes the product of normalized power and energy.
func AssertPowerFacts(eng *rules.Engine, reports map[string]*power.Report) int {
	if len(reports) == 0 {
		return 0
	}
	levels := make([]string, 0, len(reports))
	for l := range reports {
		levels = append(levels, l)
	}
	sort.Strings(levels)
	minW, minJ := math.Inf(1), math.Inf(1)
	for _, l := range levels {
		if reports[l].WattsPerProc < minW {
			minW = reports[l].WattsPerProc
		}
		if reports[l].Joules < minJ {
			minJ = reports[l].Joules
		}
	}
	bestBalanced, bestScore := "", math.Inf(1)
	for _, l := range levels {
		score := (reports[l].WattsPerProc / minW) * (reports[l].Joules / minJ)
		if score < bestScore {
			bestScore, bestBalanced = score, l
		}
	}
	n := 0
	for _, l := range levels {
		r := reports[l]
		eng.Assert(rules.NewFact("PowerFact", map[string]any{
			"level":        l,
			"watts":        r.WattsPerProc,
			"joules":       r.Joules,
			"flopPerJoule": r.FLOPPerJoule,
			"ipc":          r.IPC,
			"lowestPower":  r.WattsPerProc == minW,
			"lowestEnergy": r.Joules == minJ,
			"balanced":     l == bestBalanced,
		}))
		n++
	}
	return n
}
