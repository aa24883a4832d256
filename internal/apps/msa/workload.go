package msa

import (
	"fmt"
	"math"

	"perfknow/internal/machine"
	"perfknow/internal/perfdmf"
	"perfknow/internal/sim"
)

// Params configures one MSAP run.
type Params struct {
	Sequences int
	MeanLen   int
	LenJitter int // lengths uniform in [MeanLen-LenJitter, MeanLen+LenJitter]
	Seed      int64
	Threads   int
	Schedule  sim.Schedule
}

// DefaultParams is the 400-sequence problem of Fig. 4 sized for the given
// thread count and schedule.
func DefaultParams(threads int, sched sim.Schedule) Params {
	return Params{
		Sequences: 400,
		MeanLen:   450,
		LenJitter: 220,
		Seed:      42,
		Threads:   threads,
		Schedule:  sched,
	}
}

// Event names recorded by the workload.
const (
	EventMain     = "main"
	EventOuter    = "pairwise_outer" // the parallel distance-matrix loop
	EventInner    = "pairwise_inner" // one outer iteration's inner loop
	EventTree     = "guide_tree"
	EventProgress = "progressive_align"
)

// per-cell essential operation costs of the Smith-Waterman inner loop
// (three candidate scores, max-reduction, clamp, row-buffer traffic).
const (
	cellInt      = 8
	cellLoads    = 3
	cellStores   = 1
	cellBranches = 1
)

// Run executes the MSAP workload on a fresh machine and returns the trial.
func Run(cfg machine.Config, p Params) (*perfdmf.Trial, error) {
	lengths, err := p.lengths()
	if err != nil {
		return nil, err
	}
	return run(cfg, p, lengths)
}

// lengths returns the lengths of the problem's sequences, which depend on
// nothing a thread-count sweep varies.
func (p Params) lengths() ([]int64, error) {
	if p.Sequences < 2 {
		return nil, fmt.Errorf("msa: need at least 2 sequences, got %d", p.Sequences)
	}
	return sequenceLengths(p.Sequences, p.MeanLen, p.LenJitter, p.Seed), nil
}

// run is Run over sequences of the given lengths.
func run(cfg machine.Config, p Params, lengths []int64) (*perfdmf.Trial, error) {
	if p.Threads < 1 {
		return nil, fmt.Errorf("msa: need at least 1 thread, got %d", p.Threads)
	}
	mach := machine.New(cfg)
	eng := sim.NewEngine(mach, sim.Options{Threads: p.Threads, CallpathDepth: 3})

	var totalLen int64
	for _, n := range lengths {
		totalLen += n
	}
	// suffixLen[i] = sum of lengths of sequences after i: iteration i of the
	// outer loop aligns sequence i against all later sequences, so its DP
	// cell count is lengths[i] * suffixLen[i] — the triangular cost profile
	// behind the static-schedule imbalance.
	suffixLen := make([]int64, len(lengths)+1)
	for i := len(lengths) - 1; i >= 0; i-- {
		suffixLen[i] = suffixLen[i+1] + lengths[i]
	}

	// Sequence data is shared read-only; the DP row buffers are per-thread
	// and cache-resident.
	seqRegion := mach.AllocRegion("sequences", maxI64(totalLen, cfg.PageBytes))
	seqRegion.Place(0, seqRegion.Bytes, 0) // loaded by the master before the parallel stage
	rowBytes := int64(p.MeanLen+p.LenJitter+1) * 8

	master := eng.Master()
	master.Enter(EventMain)

	// Stage 1: distance matrix (parallel over outer iterations).
	eng.ParallelFor(EventOuter, p.Sequences, p.Schedule, func(t *sim.Thread, i int) {
		cells := uint64(lengths[i] * suffixLen[i+1])
		if cells == 0 {
			return
		}
		t.Enter(EventInner)
		t.Compute(sim.Kernel{
			IntOps:         cells * cellInt,
			Branches:       cells * cellBranches,
			MispredictRate: 0.04,
			ILP:            0.55,
			// The DP working set is the two-row buffer plus the pair of
			// sequences — cache resident, so stage 1 is compute bound and
			// its performance story is scheduling, not memory.
			Refs: [2]sim.MemRef{{
				Region: seqRegion,
				Off:    0,
				Len:    minI64(rowBytes+2*int64(p.MeanLen), seqRegion.Bytes),
				Loads:  cells * cellLoads,
				Stores: cells * cellStores,
				Reuse:  64,
			}},
		})
		t.Leave(EventInner)
	})

	// Stage 2: guide tree construction — serial O(N^2 log N) on small data.
	n := float64(p.Sequences)
	treeOps := uint64(n * n * math.Log2(n) * 6)
	master.Enter(EventTree)
	master.Compute(sim.Kernel{IntOps: treeOps, Branches: treeOps / 8, ILP: 0.45})
	master.Leave(EventTree)

	// Stage 3: progressive alignment along the tree — serial: N-1 profile
	// merges, each an O(meanLen^2) dynamic program. This is the Amdahl tail
	// that caps scaling efficiency (~93% at 16 threads on 400 sequences,
	// ~80% at 128 threads on 1000 sequences, per Fig. 4(b)): it grows
	// linearly in N while stage 1 grows quadratically.
	progCells := n * float64(p.MeanLen) * float64(p.MeanLen)
	master.Enter(EventProgress)
	master.Compute(sim.Kernel{
		IntOps:   uint64(progCells * 10),
		Branches: uint64(progCells),
		ILP:      0.55,
		Refs: [2]sim.MemRef{{
			Region: seqRegion, Off: 0, Len: minI64(rowBytes, seqRegion.Bytes),
			Loads: uint64(progCells * 3), Stores: uint64(progCells), Reuse: 64,
		}},
	})
	master.Leave(EventProgress)

	master.Leave(EventMain)

	trial, err := eng.Snapshot("MSAP", fmt.Sprintf("%d_sequences", p.Sequences),
		fmt.Sprintf("%d_%s", p.Threads, p.Schedule))
	if err != nil {
		return nil, err
	}
	trial.Metadata["application"] = "MSAP"
	trial.Metadata["stage1"] = "smith-waterman distance matrix"
	trial.Metadata["sequences"] = fmt.Sprintf("%d", p.Sequences)
	trial.Metadata["schedule"] = p.Schedule.String()
	trial.Metadata["seed"] = fmt.Sprintf("%d", p.Seed)
	return trial, nil
}

// EfficiencySweep runs the workload at each thread count and returns the
// relative efficiency of each run versus the single-thread baseline — the
// series behind Fig. 4(b).
func EfficiencySweep(cfg machine.Config, base Params, threadCounts []int) (map[int]float64, error) {
	lengths, err := base.lengths()
	if err != nil {
		return nil, err
	}
	out := make(map[int]float64, len(threadCounts))
	p1 := base
	p1.Threads = 1
	t1, err := run(cfg, p1, lengths)
	if err != nil {
		return nil, err
	}
	base1 := mainTime(t1)
	if base1 <= 0 {
		return nil, fmt.Errorf("msa: single-thread baseline has no time")
	}
	for _, tc := range threadCounts {
		p := base
		p.Threads = tc
		tr, err := run(cfg, p, lengths)
		if err != nil {
			return nil, err
		}
		tp := mainTime(tr)
		if tp <= 0 {
			return nil, fmt.Errorf("msa: %d-thread run has no time", tc)
		}
		out[tc] = base1 / (float64(tc) * tp)
	}
	return out, nil
}

func mainTime(t *perfdmf.Trial) float64 {
	e := t.Event(EventMain)
	if e == nil {
		return 0
	}
	return e.Inclusive[perfdmf.TimeMetric][0]
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
