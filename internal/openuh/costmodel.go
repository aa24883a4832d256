package openuh

import (
	"fmt"
	"math"

	"perfknow/internal/perfdmf"
)

// CostModel bundles the three static models the OpenUH loop nest optimizer
// consults — a processor model (instruction scheduling and ILP), a cache
// model (miss and startup-cycle prediction), and a parallel model (fork-join
// and scheduling overhead) — together with the runtime feedback hook that
// this paper's integration adds: measured stall, miss, and locality rates
// from PerfExplorer replace the static estimates, sharpening later
// compilations.
type CostModel struct {
	Processor ProcessorModel
	Cache     CacheModel
	Parallel  ParallelModel

	// Feedback recorded from performance analysis, keyed by event name.
	MeasuredStallPerCycle map[string]float64
	MeasuredRemoteRatio   map[string]float64
}

// DefaultCostModel returns the static model with Altix-like parameters.
func DefaultCostModel() CostModel {
	return CostModel{
		Processor: ProcessorModel{IssueWidth: 6, BaseILP: 0.55, DepPenalty: 0.55},
		Cache: CacheModel{
			L1Bytes: 16 << 10, L2Bytes: 256 << 10, L3Bytes: 6 << 20,
			LineBytes: 128, L2Lat: 5, L3Lat: 14, MemLat: 145,
		},
		Parallel:              ParallelModel{ForkJoinCycles: 4000, DispatchCycles: 250, ReductionCycles: 1200},
		MeasuredStallPerCycle: make(map[string]float64),
		MeasuredRemoteRatio:   make(map[string]float64),
	}
}

// ProcessorModel estimates achievable ILP for a statement from its
// dependence structure, the machine's issue width, and register pressure.
type ProcessorModel struct {
	IssueWidth float64
	BaseILP    float64 // achieved fraction of issue width for independent code
	DepPenalty float64 // ILP lost per unit of dependence-chain density
}

// EstimateILP returns the model's ILP estimate in (0, 1].
func (m ProcessorModel) EstimateILP(w Work) float64 {
	ilp := 1 - m.DepPenalty*w.DepChain
	if ilp < 0.05 {
		ilp = 0.05
	}
	return ilp
}

// CacheModel predicts misses and loop startup cycles for a statement's
// footprint, the same cascade shape the machine model applies at run time.
type CacheModel struct {
	L1Bytes, L2Bytes, L3Bytes int64
	LineBytes                 int64
	L2Lat, L3Lat, MemLat      int64
}

// MissPrediction is the cache model's per-level forecast.
type MissPrediction struct {
	L1, L2, L3  float64 // predicted miss counts
	StartupCyc  float64 // cycles to warm the footprint into cache
	MemStallCyc float64 // predicted stall cycles for one execution
}

// Predict forecasts misses for one execution of a statement.
func (m CacheModel) Predict(w Work) MissPrediction {
	accesses := float64(w.Loads + w.Stores)
	var p MissPrediction
	if accesses == 0 || w.Len == 0 {
		return p
	}
	lines := float64(w.Len) / float64(m.LineBytes)
	if lines < 1 {
		lines = 1
	}
	miss := func(size int64, refs float64) float64 {
		cold := math.Min(lines, refs)
		if w.Len > size && w.Reuse > 0 {
			return cold + (refs-cold)*(1-float64(size)/float64(w.Len))
		}
		return cold
	}
	p.L1 = miss(m.L1Bytes, accesses)
	p.L2 = miss(m.L2Bytes, p.L1)
	p.L3 = miss(m.L3Bytes, p.L2)
	p.StartupCyc = lines * float64(m.MemLat) / 4
	p.MemStallCyc = p.L1*float64(m.L2Lat) + p.L2*float64(m.L3Lat) + p.L3*float64(m.MemLat)
	return p
}

// ParallelModel estimates parallelization overhead and recommends loop
// schedules, accounting for threaded fork-join and reduction overhead.
type ParallelModel struct {
	ForkJoinCycles  float64
	DispatchCycles  float64
	ReductionCycles float64
}

// Overhead estimates the parallel runtime overhead in cycles for one
// execution of a worksharing loop.
func (m ParallelModel) Overhead(trip int64, threads int, chunk int) float64 {
	if chunk <= 0 {
		chunk = 1
	}
	chunks := float64(trip) / float64(chunk)
	return m.ForkJoinCycles + chunks*m.DispatchCycles/float64(threads)*float64(threads) + float64(threads)*50
}

// ShouldParallelize decides whether a loop's body work amortizes the
// parallel overhead at the given thread count.
func (m ParallelModel) ShouldParallelize(bodyCycles float64, trip int64, threads int) bool {
	serial := bodyCycles * float64(trip)
	parallel := serial/float64(threads) + m.Overhead(trip, threads, 1)
	return parallel < serial
}

// RecommendChunk picks the dynamic chunk size minimizing modeled dispatch
// overhead plus imbalance for a loop whose per-iteration cost varies with
// coefficient of variation cov.
func (m ParallelModel) RecommendChunk(trip int64, threads int, bodyCycles, cov float64) int {
	bestChunk, bestCost := 1, math.Inf(1)
	for _, chunk := range []int{1, 2, 4, 8, 16, 32} {
		if int64(chunk) > trip {
			break
		}
		chunks := float64(trip) / float64(chunk)
		dispatch := chunks * m.DispatchCycles
		// Imbalance grows with chunk size when iteration costs vary: the
		// last chunks straggle by roughly chunk*bodyCycles*cov.
		imbalance := float64(chunk) * bodyCycles * cov * float64(threads)
		cost := dispatch + imbalance
		if cost < bestCost {
			bestCost, bestChunk = cost, chunk
		}
	}
	return bestChunk
}

// ApplyFeedback folds measured runtime behaviour from a trial into the cost
// model: per-event stall-per-cycle rates and remote-access ratios. Later
// compilations can consult these instead of the static estimates — the
// feedback loop of Fig. 3.
func (cm *CostModel) ApplyFeedback(t *perfdmf.Trial) error {
	const (
		stalls = "BACK_END_BUBBLE_ALL"
		cycles = "CPU_CYCLES"
		remote = "REMOTE_MEMORY_ACCESSES"
		l3m    = "L3_MISSES"
	)
	if !t.HasMetric(stalls) || !t.HasMetric(cycles) {
		return fmt.Errorf("openuh: trial %q lacks stall/cycle metrics for feedback", t.Name)
	}
	for _, e := range t.Events {
		if e.IsCallpath() {
			continue
		}
		cyc := perfdmf.Mean(e.Exclusive[cycles])
		if cyc <= 0 {
			continue
		}
		cm.MeasuredStallPerCycle[e.Name] = perfdmf.Mean(e.Exclusive[stalls]) / cyc
		if t.HasMetric(remote) && t.HasMetric(l3m) {
			if l3 := perfdmf.Mean(e.Exclusive[l3m]); l3 > 0 {
				cm.MeasuredRemoteRatio[e.Name] = perfdmf.Mean(e.Exclusive[remote]) / l3
			}
		}
	}
	return nil
}

// StallRate returns the measured stall-per-cycle rate for an event if
// feedback recorded one, else the static default estimate.
func (cm *CostModel) StallRate(event string, def float64) float64 {
	if v, ok := cm.MeasuredStallPerCycle[event]; ok {
		return v
	}
	return def
}

// RemoteRatio returns the measured remote-access ratio for an event, or def.
func (cm *CostModel) RemoteRatio(event string, def float64) float64 {
	if v, ok := cm.MeasuredRemoteRatio[event]; ok {
		return v
	}
	return def
}
