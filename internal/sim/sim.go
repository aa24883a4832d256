// Package sim is the execution engine: it runs workload models on the
// ccNUMA machine model under OpenMP- and MPI-style parallel runtimes,
// advancing a virtual clock per thread and accumulating hardware counters,
// with TAU-style instrumentation around every region of interest.
//
// The engine is a virtual-time simulator. Logical threads execute one at a
// time in the host process, each carrying its own cycle clock and counter
// set; synchronization points (OpenMP barriers, MPI waits) reconcile the
// clocks exactly the way the real constructs serialize real threads. The
// OpenMP loop scheduler reproduces static/dynamic(chunk)/guided semantics
// by always dispatching the next chunk to the logical thread with the
// smallest clock — precisely what a central work queue does in real time.
package sim

import (
	"fmt"

	"perfknow/internal/counters"
	"perfknow/internal/machine"
	"perfknow/internal/perfdmf"
	"perfknow/internal/tau"
)

// Overheads holds the runtime-system cost constants, in cycles. The
// defaults model a lightweight OpenMP runtime and a NUMAlink MPI stack.
type Overheads struct {
	ForkJoin    uint64  // per-thread cost of entering+leaving a parallel region
	Dispatch    uint64  // per-chunk cost of a dynamic schedule dispatch
	BarrierBase uint64  // per-thread cost of a barrier even when perfectly balanced
	MPILatency  uint64  // per-message latency (alpha)
	MPIByteCyc  float64 // per-byte transfer cost (1/beta)
	CopyByteCyc float64 // per-byte cost floor of an on-processor memory copy
}

// DefaultOverheads returns the standard runtime cost constants.
func DefaultOverheads() Overheads {
	return Overheads{
		ForkJoin:    4000,
		Dispatch:    250,
		BarrierBase: 800,
		MPILatency:  6000,
		MPIByteCyc:  0.75,
		CopyByteCyc: 0.18,
	}
}

// Options configures an Engine.
type Options struct {
	Threads       int // logical OpenMP threads or MPI ranks
	CallpathDepth int // forwarded to the measurement runtime
	Overheads     *Overheads
}

// Engine couples a machine, a set of logical threads and a profiler.
type Engine struct {
	mach    *machine.Machine
	cfg     machine.Config // mach.Config(), copied once: price reads it per kernel
	prof    *tau.Profiler
	threads []*Thread
	ovh     Overheads

	memo    chargeMemo // charges of kernels already priced, see memo.go
	memoOff bool       // price every execution; only tests set it
	priced  uint64     // kernels priced so far; tests read it, nothing exports it

	rep repetition // the sweeps of a Repeat, see repeat.go
}

// newEngineHook, when a test of this package sets it, sees every engine
// NewEngine builds before its caller does — the only way to reach an engine
// that an application's Run creates and never hands out.
var newEngineHook func(*Engine)

// NewEngine builds an engine with opts.Threads logical threads pinned
// round-robin to the machine's CPUs (thread i on CPU i mod CPUs).
func NewEngine(m *machine.Machine, opts Options) *Engine {
	if opts.Threads <= 0 {
		panic(fmt.Sprintf("sim: Threads must be positive, got %d", opts.Threads))
	}
	ovh := DefaultOverheads()
	if opts.Overheads != nil {
		ovh = *opts.Overheads
	}
	cfg := m.Config()
	e := &Engine{
		mach: m,
		cfg:  cfg,
		prof: tau.NewProfiler(tau.Options{
			Threads:       opts.Threads,
			ClockHz:       cfg.ClockHz,
			CallpathDepth: opts.CallpathDepth,
		}),
		ovh: ovh,
	}
	// One allocation holds every thread: an engine is built per simulated run.
	threads := make([]Thread, opts.Threads)
	e.threads = make([]*Thread, opts.Threads)
	for i := range threads {
		threads[i] = Thread{ID: i, CPU: i % m.CPUs(), eng: e}
		e.threads[i] = &threads[i]
	}
	if newEngineHook != nil {
		newEngineHook(e)
	}
	return e
}

// Machine returns the underlying machine model.
func (e *Engine) Machine() *machine.Machine { return e.mach }

// Overheads returns the runtime cost constants in effect.
func (e *Engine) Overheads() Overheads { return e.ovh }

// Threads returns the logical thread count.
func (e *Engine) Threads() int { return len(e.threads) }

// Thread returns logical thread id.
func (e *Engine) Thread(id int) *Thread { return e.threads[id] }

// Master returns thread 0.
func (e *Engine) Master() *Thread { return e.threads[0] }

// Snapshot produces the trial recorded so far. All timers must be closed.
func (e *Engine) Snapshot(app, experiment, name string) (*Trial, error) {
	t, err := e.prof.Trial(app, experiment, name)
	if err != nil {
		return nil, err
	}
	t.Metadata["threads"] = fmt.Sprintf("%d", len(e.threads))
	t.Metadata["machine:nodes"] = fmt.Sprintf("%d", e.cfg.Nodes)
	t.Metadata["machine:cpus_per_node"] = fmt.Sprintf("%d", e.cfg.CPUsPerNode)
	t.Metadata["machine:clock_hz"] = fmt.Sprintf("%g", e.cfg.ClockHz)
	return t, nil
}

// Trial aliases perfdmf.Trial so app packages can name the snapshot result
// without importing perfdmf directly.
type Trial = perfdmf.Trial

// Thread is one logical thread (or MPI rank) of execution.
type Thread struct {
	ID    int
	CPU   int
	Clock uint64
	CS    counters.Set
	eng   *Engine
}

// Node returns the NUMA node the thread's CPU belongs to.
func (t *Thread) Node() int { return t.eng.mach.NodeOf(t.CPU) }

// Enter opens an instrumented region on this thread.
func (t *Thread) Enter(event string) {
	t.eng.prof.Thread(t.ID).Enter(event, t.Clock, &t.CS)
}

// Leave closes the current region, which must be event.
func (t *Thread) Leave(event string) {
	t.eng.prof.Thread(t.ID).Leave(event, t.Clock, &t.CS)
}

// Advance moves the thread's clock forward by cyc cycles and merges delta
// into its counters, keeping the Cycles counter in step with the clock.
func (t *Thread) Advance(cyc uint64, delta *counters.Set) {
	t.Clock += cyc
	if delta != nil {
		t.CS.Add(delta)
	}
	t.CS.Inc(counters.Cycles, cyc)
}

// MemRef describes one data region touched by a kernel.
type MemRef struct {
	Region     *machine.Region
	Off, Len   int64
	Loads      uint64
	Stores     uint64
	Stride     int64
	Reuse      float64
	FirstTouch bool    // apply first-touch placement for this thread's node before costing
	Contenders int     // concurrent threads hitting the range's home node (queueing model)
	Hot        float64 // fraction of the working set L3-resident from recent use
}

// Kernel describes a unit of computation in the terms the processor and
// memory models need. Zero values are safe: a zero kernel costs nothing.
//
// Refs is a fixed-size array rather than a slice: every kernel in the
// system carries at most two references (essential traffic plus
// spill/overhead traffic), and the inline array makes a Kernel one flat,
// comparable value — Compute finds the charge it kept for an equal kernel
// with ==, and keeping a kernel is a copy with nothing behind it to share.
// A zero MemRef is skipped when the kernel is priced, so unused entries
// cost nothing.
type Kernel struct {
	FPOps, IntOps, Branches uint64
	MispredictRate          float64 // fraction of branches mispredicted
	ILP                     float64 // achieved fraction of issue width absent stalls (0 → default 0.5)
	FPStallPerOp            float64 // dependency-chain stall cycles per FP op
	RegDepFrac              float64 // register-dependency bubble as a fraction of base cycles
	IssuedOverhead          float64 // extra issued-but-not-retired instruction fraction
	Refs                    [2]MemRef
}

// Compute executes the kernel on the thread: it prices the kernel, or finds
// what an equal kernel was charged on this node under the placement in force
// (see memo.go), and charges that in a single Advance.
func (t *Thread) Compute(k Kernel) { t.compute(&k) }

func (t *Thread) compute(k *Kernel) {
	e := t.eng
	var epochs [len(k.Refs)]uint64
	if !e.memoOff && settled(k, &epochs) {
		if c, fresh := e.memo.lookup(k, t.Node()); c != nil {
			if fresh || c.epochs != epochs {
				c.epochs = epochs
				c.delta = counters.Set{}
				c.cyc = t.price(k, &c.delta)
			}
			t.Advance(c.cyc, &c.delta)
			return
		}
	}
	var delta counters.Set
	t.Advance(t.price(k, &delta), &delta)
}

// settled reports whether the placement of every region k references can no
// longer change unseen, and stores each one's Epoch in epochs.
func settled(k *Kernel, epochs *[len(Kernel{}.Refs)]uint64) bool {
	for i := range k.Refs {
		if r := k.Refs[i].Region; r != nil {
			if epochs[i] = r.Epoch(); epochs[i] == 0 {
				return false
			}
		}
	}
	return true
}

// price works out what executing k on this thread costs: first-touch
// placement, the analytic cache cascade for each memory reference, the
// processor model for base issue cycles and the stall decomposition. It
// returns the cycles and adds the counter deltas to delta, which the caller
// passes in zeroed; the thread is not charged. Over settled regions the
// first touch places nothing, the thread enters only through its node, and
// price is a function of (k, node, placement) — the case Compute keeps.
func (t *Thread) price(k *Kernel, delta *counters.Set) uint64 {
	t.eng.priced++
	cfg := &t.eng.cfg

	var loads, stores uint64
	var memStall, rawLatency uint64
	for i := range k.Refs {
		ref := &k.Refs[i]
		if ref.Region == nil || ref.Loads+ref.Stores == 0 {
			loads += ref.Loads
			stores += ref.Stores
			continue
		}
		if ref.FirstTouch {
			ref.Region.Touch(ref.Off, ref.Len, t.Node())
		}
		c := t.eng.mach.AccessCost(t.CPU, ref.Region, ref.Off, ref.Len, machine.MemProfile{
			Loads:      ref.Loads,
			Stores:     ref.Stores,
			WorkingSet: ref.Len,
			StrideB:    ref.Stride,
			Reuse:      ref.Reuse,
			Contenders: ref.Contenders,
			Hot:        ref.Hot,
		})
		loads += ref.Loads
		stores += ref.Stores
		memStall += c.StallCycles
		rawLatency += c.RawLatency
		delta.Inc(counters.L1DRefs, c.L1DRefs)
		delta.Inc(counters.L1DMisses, c.L1DMiss)
		delta.Inc(counters.L2Refs, c.L2Refs)
		delta.Inc(counters.L2Misses, c.L2Miss)
		delta.Inc(counters.L3Refs, c.L3Refs)
		delta.Inc(counters.L3Misses, c.L3Miss)
		delta.Inc(counters.TLBMisses, c.TLBMiss)
		delta.Inc(counters.LocalMem, c.Local)
		delta.Inc(counters.RemoteMem, c.Remote)
	}

	instr := k.FPOps + k.IntOps + k.Branches + loads + stores
	if instr == 0 && memStall == 0 {
		return 0
	}
	ilp := k.ILP
	if ilp <= 0 {
		ilp = 0.5
	}
	if ilp > 1 {
		ilp = 1
	}
	base := uint64(float64(instr) / (cfg.IssueWidth * ilp))
	if base == 0 && instr > 0 {
		base = 1
	}

	fpStall := uint64(float64(k.FPOps) * k.FPStallPerOp)
	brStall := uint64(float64(k.Branches) * k.MispredictRate * float64(cfg.BranchPenalty))
	regDep := uint64(float64(base) * k.RegDepFrac)
	// Small fixed front-end costs proportional to instruction volume.
	iMiss := instr / 4000
	stack := instr / 8000
	feFlush := uint64(float64(k.Branches) * k.MispredictRate / 2)

	stallAll := memStall + fpStall + brStall + regDep + iMiss + stack + feFlush

	delta.Inc(counters.FPOps, k.FPOps)
	delta.Inc(counters.IntOps, k.IntOps)
	delta.Inc(counters.Branches, k.Branches)
	delta.Inc(counters.Loads, loads)
	delta.Inc(counters.Stores, stores)
	delta.Inc(counters.InstrCompleted, instr)
	issued := uint64(float64(instr) * (1 + k.IssuedOverhead + k.MispredictRate*0.05))
	if issued < instr {
		issued = instr
	}
	delta.Inc(counters.InstrIssued, issued)
	delta.Inc(counters.BranchMispredic, uint64(float64(k.Branches)*k.MispredictRate))

	delta.Inc(counters.StallAll, stallAll)
	delta.Inc(counters.StallL1D, memStall)
	delta.Inc(counters.StallFP, fpStall)
	delta.Inc(counters.StallBranch, brStall)
	delta.Inc(counters.StallRegDep, regDep)
	delta.Inc(counters.StallIMiss, iMiss)
	delta.Inc(counters.StallStack, stack)
	delta.Inc(counters.StallFEFlush, feFlush)
	delta.Inc(counters.MemLatency, rawLatency)

	return base + stallAll
}

// Copy models an on-processor memory copy of n bytes from src to dst
// (either may be nil for a synthetic buffer). The cost combines a
// byte-bandwidth floor with the cache/NUMA cost of streaming both operands.
func (t *Thread) Copy(dst, src *machine.Region, dstOff, srcOff, n int64) {
	t.CopyHot(dst, src, dstOff, srcOff, n, 0, 0)
}

// CopyHot is Copy with explicit L3-residency hints for the source and
// destination ranges (see machine.MemProfile.Hot) — intermediate exchange
// buffers that were just written are hot, field arrays streamed once per
// sweep are not.
func (t *Thread) CopyHot(dst, src *machine.Region, dstOff, srcOff, n int64, srcHot, dstHot float64) {
	if n <= 0 {
		return
	}
	words := uint64(n / 8)
	if words == 0 {
		words = 1
	}
	k := Kernel{
		IntOps: words / 4, // address arithmetic
		ILP:    0.8,
	}
	// Unit-stride copies touch 8 words per cache line: line-level reuse 7.
	// The references are filled where they lie and the kernel goes to
	// compute by address: this runs once per copy of every exchange.
	from, to := &k.Refs[0], &k.Refs[1]
	from.Loads = words
	if src != nil {
		from.Region, from.Off, from.Len, from.Reuse, from.Hot = src, srcOff, n, 7, srcHot
	}
	to.Stores = words
	if dst != nil {
		to.Region, to.Off, to.Len, to.Reuse, to.Hot, to.FirstTouch = dst, dstOff, n, 7, dstHot, true
	}
	t.compute(&k)
	// Bandwidth floor for the copy engine.
	floor := uint64(float64(n) * t.eng.ovh.CopyByteCyc)
	t.Advance(floor, nil)
}
