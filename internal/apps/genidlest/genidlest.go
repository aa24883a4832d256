// Package genidlest is the fluid-dynamics case study (§III-B): a
// GenIDLEST-style incompressible Navier-Stokes solver on an overlapping
// multi-block structured mesh, runnable as MPI (one or more blocks per
// rank) or OpenMP (blocks workshared across threads), in the unoptimized
// form the paper diagnoses — sequential data initialization that first-touch
// places every page on node 0, and a boundary-update procedure
// (exchange_var / mpi_send_recv_ko) whose on-processor copies are serial on
// the master thread — and in the optimized form with parallel first-touch
// initialization and parallelized direct copies.
//
// The solver procedures carry the names the paper reports in Fig. 5(a):
// bicgstab, matxvec, diff_coeff, pc, pc_jac_glb, exchange_var,
// mpi_send_recv_ko.
package genidlest

import (
	"fmt"

	"perfknow/internal/machine"
	"perfknow/internal/openuh"
	"perfknow/internal/perfdmf"
	"perfknow/internal/sim"
)

// Mode selects the programming model.
type Mode int

// Programming models.
const (
	OpenMP Mode = iota
	MPI
	Hybrid // MPI across ranks, OpenMP threads within each rank
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case MPI:
		return "MPI"
	case Hybrid:
		return "Hybrid"
	}
	return "OpenMP"
}

// Problem describes one of the two test cases.
type Problem struct {
	Name          string
	NX, NY, NZ    int   // global grid
	Blocks        int   // computational blocks (split along z)
	OnProcCopies  int   // OpenMP on-processor boundary copies per exchange (paper's counts)
	ArraysPerCell int   // field arrays carried per cell
	FaceArrays    int   // arrays exchanged at ghost faces
	CellBytes     int64 // bytes per cell per array
}

// Rib45 is the 45-degree ribbed duct: 128x80x64 in 8 blocks of 128x80x8,
// with 30 on-processor copies in the OpenMP boundary update.
func Rib45() Problem {
	return Problem{Name: "45rib", NX: 128, NY: 80, NZ: 64, Blocks: 8,
		OnProcCopies: 30, ArraysPerCell: 12, FaceArrays: 2, CellBytes: 8}
}

// Rib90 is the 90-degree rib: 128x128x128 in 32 blocks of 128x128x4, with
// 126 on-processor copies in the OpenMP boundary update.
func Rib90() Problem {
	return Problem{Name: "90rib", NX: 128, NY: 128, NZ: 128, Blocks: 32,
		OnProcCopies: 126, ArraysPerCell: 12, FaceArrays: 2, CellBytes: 8}
}

// ProblemByName resolves "45rib" / "90rib".
func ProblemByName(name string) (Problem, error) {
	switch name {
	case "45rib":
		return Rib45(), nil
	case "90rib":
		return Rib90(), nil
	}
	return Problem{}, fmt.Errorf("genidlest: unknown problem %q", name)
}

// Cells returns cells per block and total.
func (p Problem) Cells() (perBlock, total int64) {
	total = int64(p.NX) * int64(p.NY) * int64(p.NZ)
	return total / int64(p.Blocks), total
}

// FaceBytes is the ghost-face payload exchanged per boundary.
func (p Problem) FaceBytes() int64 {
	return int64(p.NX) * int64(p.NY) * p.CellBytes * int64(p.FaceArrays)
}

// Config selects a run.
type Config struct {
	Problem   Problem
	Mode      Mode
	Optimized bool // shorthand: enables both fixes below

	// The two fixes of §III-B, separable for ablation studies: FixInit
	// parallelizes the initialization loops (first-touch distributes
	// pages); FixExchange parallelizes the boundary-update copies and
	// eliminates the intermediate buffers.
	FixInit     bool
	FixExchange bool

	Threads    int // total processing units; must divide Blocks or vice versa
	Timesteps  int
	InnerIters int // solver sweeps per timestep
	OptLevel   openuh.OptLevel

	// ThreadsPerRank applies to Hybrid mode only: Threads is split into
	// Threads/ThreadsPerRank MPI ranks of ThreadsPerRank OpenMP threads.
	ThreadsPerRank int
}

// fixInit reports whether the initialization fix is active.
func (c Config) fixInit() bool { return c.Optimized || c.FixInit }

// fixExchange reports whether the boundary-update fix is active.
func (c Config) fixExchange() bool { return c.Optimized || c.FixExchange }

// DefaultConfig returns a run of the given problem sized like the paper's.
func DefaultConfig(p Problem, mode Mode, threads int) Config {
	return Config{
		Problem:    p,
		Mode:       mode,
		Threads:    threads,
		Timesteps:  3,
		InnerIters: 10,
		OptLevel:   openuh.O2,
	}
}

// Event names (the paper's procedure names).
const (
	EventMain       = "main"
	EventInit       = "initialization"
	EventDiffCoeff  = "diff_coeff"
	EventBicgstab   = "bicgstab"
	EventMatxvec    = "matxvec"
	EventPC         = "pc"
	EventPCJacGlb   = "pc_jac_glb"
	EventExchange   = "exchange_var__"
	EventSendRecvKo = "mpi_send_recv_ko"
)

// SolverEvents lists the computation procedures of Fig. 5(a).
func SolverEvents() []string {
	return []string{EventBicgstab, EventDiffCoeff, EventMatxvec, EventPC, EventPCJacGlb}
}

// procedure work per cell (essential ops) — a 7-point stencil solver mix.
// reuse counts line re-references from spatial locality (8 doubles per line)
// plus the stencil's short-range temporal reuse; arrays is how many of the
// block's field arrays the procedure streams (its working-set share).
type procWork struct {
	fp, ld, st uint64
	reuse      float64
	dep        float64
	arrays     int
}

var solverProcs = map[string]procWork{
	EventDiffCoeff: {fp: 12, ld: 8, st: 2, reuse: 10, dep: 0.25, arrays: 4},
	EventMatxvec:   {fp: 14, ld: 9, st: 1, reuse: 14, dep: 0.30, arrays: 3},
	EventPC:        {fp: 8, ld: 5, st: 1, reuse: 12, dep: 0.35, arrays: 3},
	EventPCJacGlb:  {fp: 4, ld: 3, st: 1, reuse: 10, dep: 0.30, arrays: 2},
	EventBicgstab:  {fp: 10, ld: 6, st: 3, reuse: 12, dep: 0.40, arrays: 4},
}

// run state shared by both modes.
type runState struct {
	cfg    Config
	mach   *machine.Machine
	eng    *sim.Engine
	cg     openuh.CodeGen
	fields *machine.Region // all field arrays, block-major
	buf    *machine.Region // intermediate exchange buffers
	blockB int64           // bytes per block (all arrays)

	// solver[name][block] is the kernel of one solver procedure over one
	// block. Nothing in it changes during a run, so Run builds it once.
	solver map[string][]sim.Kernel
}

// Run executes the configured workload on a fresh machine built from cfg.
func Run(mcfg machine.Config, cfg Config) (*perfdmf.Trial, error) {
	if cfg.Threads < 1 {
		return nil, fmt.Errorf("genidlest: need at least 1 thread, got %d", cfg.Threads)
	}
	if cfg.Problem.Blocks%cfg.Threads != 0 && cfg.Threads%cfg.Problem.Blocks != 0 {
		return nil, fmt.Errorf("genidlest: %d threads do not divide %d blocks",
			cfg.Threads, cfg.Problem.Blocks)
	}
	if cfg.Timesteps < 1 || cfg.InnerIters < 1 {
		return nil, fmt.Errorf("genidlest: timesteps and inner iterations must be positive")
	}
	if cfg.Mode == Hybrid {
		if cfg.ThreadsPerRank < 1 || cfg.Threads%cfg.ThreadsPerRank != 0 {
			return nil, fmt.Errorf("genidlest: hybrid mode needs ThreadsPerRank dividing %d threads, got %d",
				cfg.Threads, cfg.ThreadsPerRank)
		}
	}

	st := &runState{cfg: cfg, mach: machine.New(mcfg)}
	st.eng = sim.NewEngine(st.mach, sim.Options{Threads: cfg.Threads, CallpathDepth: 3})
	prog := openuh.NewProgram("genidlest")
	prog.AddProc(&openuh.Proc{Name: "main"}) // satisfy program validation
	st.cg = openuh.Optimize(prog, cfg.OptLevel, nil)

	perBlock, total := cfg.Problem.Cells()
	st.blockB = perBlock * cfg.Problem.CellBytes * int64(cfg.Problem.ArraysPerCell)
	st.fields = st.mach.AllocRegion("fields", total*cfg.Problem.CellBytes*int64(cfg.Problem.ArraysPerCell))
	st.buf = st.mach.AllocRegion("exchange_buffers", maxI64(cfg.Problem.FaceBytes()*2, mcfg.PageBytes))
	st.solver = make(map[string][]sim.Kernel, len(solverProcs))
	for name, w := range solverProcs {
		ks := make([]sim.Kernel, cfg.Problem.Blocks)
		for b := range ks {
			ks[b] = st.solverKernel(w, b)
		}
		st.solver[name] = ks
	}

	master := st.eng.Master()
	master.Enter(EventMain)
	st.initialize()
	for ts := 0; ts < cfg.Timesteps; ts++ {
		st.timestep()
	}
	master.Leave(EventMain)

	trial, err := st.eng.Snapshot("Fluid Dynamic", "rib "+cfg.Problem.Name,
		fmt.Sprintf("%s_%d_%s", cfg.Mode, cfg.Threads, optLabel(cfg.Optimized)))
	if err != nil {
		return nil, err
	}
	trial.Metadata["application"] = "GenIDLEST"
	trial.Metadata["problem"] = cfg.Problem.Name
	trial.Metadata["mode"] = cfg.Mode.String()
	trial.Metadata["optimized"] = fmt.Sprintf("%v", cfg.Optimized)
	trial.Metadata["blocks"] = fmt.Sprintf("%d", cfg.Problem.Blocks)
	trial.Metadata["compiler:opt_level"] = cfg.OptLevel.String()
	return trial, nil
}

func optLabel(optimized bool) string {
	if optimized {
		return "opt"
	}
	return "unopt"
}

// blocksOf returns the block index range owned by a thread/rank.
func (st *runState) blocksOf(unit int) (lo, hi int) {
	blocks := st.cfg.Problem.Blocks
	per := blocks / st.cfg.Threads
	if per < 1 {
		// More threads than blocks: the first `blocks` units get one each.
		if unit < blocks {
			return unit, unit + 1
		}
		return 0, 0
	}
	return unit * per, (unit + 1) * per
}

// contenders estimates how many threads concurrently hit the home node of
// the fields region: with node-0 placement every thread contends; with
// distributed placement only the node's own CPUs do.
func (st *runState) contenders() int {
	if st.cfg.Mode == OpenMP && !st.cfg.fixInit() {
		return st.cfg.Threads
	}
	c := st.mach.Config().CPUsPerNode
	if st.cfg.Threads < c {
		return st.cfg.Threads
	}
	return c
}

// initialize models the data initialization. Unoptimized OpenMP initializes
// sequentially on the master (placing every page on node 0); the optimized
// version parallelizes the initialization loops so first touch distributes
// pages; MPI ranks each touch their own blocks.
func (st *runState) initialize() {
	perBlock, _ := st.cfg.Problem.Cells()
	cellsPerBlock := uint64(perBlock)
	initWork := func(t *sim.Thread, block int) {
		off := int64(block) * st.blockB
		t.Compute(sim.Kernel{
			IntOps: cellsPerBlock * 2,
			ILP:    0.8,
			Refs: [2]sim.MemRef{{
				Region: st.fields, Off: off, Len: st.blockB,
				Stores: cellsPerBlock * uint64(st.cfg.Problem.ArraysPerCell),
				Reuse:  0, FirstTouch: true,
			}},
		})
	}
	switch {
	case st.cfg.Mode == MPI || st.cfg.Mode == Hybrid:
		// Each processing unit touches its own blocks: data is local by
		// construction, as in the MPI port (hybrid ranks inherit this).
		st.eng.SPMD(func(r *sim.Thread, rank int) {
			r.Enter(EventInit)
			lo, hi := st.blocksOf(rank)
			for b := lo; b < hi; b++ {
				initWork(r, b)
			}
			r.Leave(EventInit)
		})
		st.eng.MPIBarrier()
	case st.cfg.fixInit():
		st.eng.ParallelFor(EventInit, st.cfg.Problem.Blocks, sim.Schedule{Kind: sim.StaticSched},
			func(t *sim.Thread, b int) { initWork(t, b) })
	default:
		// Sequential initialization on the master: the locality defect.
		master := st.eng.Master()
		master.Enter(EventInit)
		for b := 0; b < st.cfg.Problem.Blocks; b++ {
			initWork(master, b)
		}
		master.Leave(EventInit)
	}
}

// solverKernel builds the kernel for one procedure over one block.
func (st *runState) solverKernel(w procWork, block int) sim.Kernel {
	perBlock, _ := st.cfg.Problem.Cells()
	cells := uint64(perBlock)
	work := openuh.Work{
		FP:       w.fp * cells,
		Int:      cells * 2,
		Loads:    w.ld * cells,
		Stores:   w.st * cells,
		Branches: cells / 8,
		DepChain: w.dep,
	}
	k := st.cg.Expand(work, nil)
	// Refs[0] carries the essential field-array traffic; point it at this
	// block's slice of the fields region, sized to the arrays the procedure
	// actually streams. Refs[1] (spill traffic) stays stack-resident.
	k.Refs[0].Region = st.fields
	k.Refs[0].Off = int64(block) * st.blockB
	k.Refs[0].Len = st.blockB * int64(w.arrays) / int64(st.cfg.Problem.ArraysPerCell)
	k.Refs[0].Reuse = w.reuse * st.cg.ReuseBoost
	k.Refs[0].Contenders = st.contenders()
	// The solver re-streams the same arrays every sweep; a share of the
	// footprint survives in L3 between sweeps when it fits.
	k.Refs[0].Hot = 0.35
	return k
}

// rankTeams returns the per-rank thread groups of a hybrid run.
func (st *runState) rankTeams() []*sim.Team {
	tpr := st.cfg.ThreadsPerRank
	ranks := st.cfg.Threads / tpr
	teams := make([]*sim.Team, ranks)
	for r := 0; r < ranks; r++ {
		ids := make([]int, tpr)
		for i := range ids {
			ids[i] = r*tpr + i
		}
		teams[r] = st.eng.TeamOf(ids...)
	}
	return teams
}

// computePhase runs one named solver procedure over all blocks, workshared
// by mode.
func (st *runState) computePhase(name string) {
	ks := st.solver[name]
	if st.cfg.Mode == MPI {
		st.eng.SPMD(func(r *sim.Thread, rank int) {
			r.Enter(name)
			lo, hi := st.blocksOf(rank)
			for b := lo; b < hi; b++ {
				r.Compute(ks[b])
			}
			r.Leave(name)
		})
		return
	}
	if st.cfg.Mode == Hybrid {
		// Every unit computes its own blocks, then the rank's OpenMP team
		// joins at an intra-process barrier (inside the phase event).
		st.eng.SPMD(func(u *sim.Thread, unit int) {
			u.Enter(name)
			lo, hi := st.blocksOf(unit)
			for b := lo; b < hi; b++ {
				u.Compute(ks[b])
			}
		})
		for _, team := range st.rankTeams() {
			team.Barrier()
		}
		st.eng.SPMD(func(u *sim.Thread, unit int) { u.Leave(name) })
		return
	}
	st.eng.ParallelRegion(name, func(tm *sim.Team) {
		tm.Each(func(t *sim.Thread) {
			lo, hi := st.blocksOf(t.ID)
			for b := lo; b < hi; b++ {
				t.Compute(ks[b])
			}
		})
	})
}

// exchange models the ghost-cell boundary update.
func (st *runState) exchange() {
	faceB := st.cfg.Problem.FaceBytes()
	switch st.cfg.Mode {
	case MPI:
		// Each rank posts 2 sends and 2 receives (z-neighbors, periodic in
		// the flow direction) and performs 2 on-processor copies.
		st.eng.SPMD(func(r *sim.Thread, rank int) {
			r.Enter(EventExchange)
			for c := 0; c < 2; c++ {
				r.Copy(st.fields, st.fields,
					int64(rank)*st.blockB, int64(rank)*st.blockB, faceB)
			}
		})
		var msgs []sim.Message
		n := st.cfg.Threads
		for rank := 0; rank < n; rank++ {
			msgs = append(msgs,
				sim.Message{From: rank, To: (rank + 1) % n, Bytes: faceB},
				sim.Message{From: rank, To: (rank + n - 1) % n, Bytes: faceB},
			)
		}
		st.eng.Exchange(msgs)
		st.eng.SPMD(func(r *sim.Thread, rank int) { r.Leave(EventExchange) })
	case Hybrid:
		// Intra-rank boundaries are shared-memory direct copies workshared
		// across the rank's OpenMP threads; inter-rank faces travel as MPI
		// messages between the ranks' master threads.
		tpr := st.cfg.ThreadsPerRank
		ranks := st.cfg.Threads / tpr
		st.eng.SPMD(func(u *sim.Thread, unit int) { u.Enter(EventExchange) })
		intraTotal := st.cfg.Problem.OnProcCopies * maxInt(st.cfg.Problem.Blocks-ranks, 0) / st.cfg.Problem.Blocks
		perRank := intraTotal / maxInt(ranks, 1)
		for r, team := range st.rankTeams() {
			base := r * (st.cfg.Problem.Blocks / maxInt(ranks, 1))
			team.For(perRank, sim.Schedule{Kind: sim.StaticSched}, func(t *sim.Thread, c int) {
				src := (base + c) % st.cfg.Problem.Blocks
				dst := (src + 1) % st.cfg.Problem.Blocks
				t.Copy(st.fields, st.fields,
					int64(dst)*st.blockB, int64(src)*st.blockB, faceB)
			})
			team.Barrier()
		}
		var msgs []sim.Message
		for r := 0; r < ranks; r++ {
			master := r * tpr
			next := ((r + 1) % ranks) * tpr
			prev := ((r + ranks - 1) % ranks) * tpr
			msgs = append(msgs,
				sim.Message{From: master, To: next, Bytes: faceB},
				sim.Message{From: master, To: prev, Bytes: faceB},
			)
		}
		if ranks > 1 {
			st.eng.Exchange(msgs)
		}
		st.eng.SPMD(func(u *sim.Thread, unit int) { u.Leave(EventExchange) })
	case OpenMP:
		copies := st.cfg.Problem.OnProcCopies
		if st.cfg.fixExchange() {
			// Optimized: direct copies parallelized over blocks; the two
			// intermediate buffer steps are eliminated.
			st.eng.ParallelRegion(EventExchange, func(tm *sim.Team) {
				tm.For(copies, sim.Schedule{Kind: sim.StaticSched}, func(t *sim.Thread, c int) {
					// Each direct copy writes into the neighbouring block's
					// ghost layer, whose pages live on the neighbour's node —
					// the residual NUMA traffic that keeps the optimized
					// OpenMP version ~15% behind MPI.
					src := c % st.cfg.Problem.Blocks
					dst := (src + 1) % st.cfg.Problem.Blocks
					t.Copy(st.fields, st.fields,
						int64(dst)*st.blockB, int64(src)*st.blockB, faceB)
				})
			})
			return
		}
		// Unoptimized: all copies in shared memory initiated by the master
		// thread, through intermediate send and receive buffers (three
		// buffer traversals per boundary), inside mpi_send_recv_ko.
		st.eng.ParallelRegion(EventExchange, func(tm *sim.Team) {
			tm.MasterOnly(func(t *sim.Thread) {
				t.Enter(EventSendRecvKo)
				for c := 0; c < copies; c++ {
					block := c % st.cfg.Problem.Blocks
					src := int64(block) * st.blockB
					// Fill send buffer (cold field data), shuffle to the
					// receive buffer (both L3-hot), copy to the destination.
					t.CopyHot(st.buf, st.fields, 0, src, faceB, 0, 1)
					t.CopyHot(st.buf, st.buf, faceB, 0, faceB, 1, 1)
					t.CopyHot(st.fields, st.buf, src, faceB, faceB, 1, 0)
				}
				t.Leave(EventSendRecvKo)
			})
		})
	}
}

// timestep runs one outer iteration: diffusion coefficients, then the
// BiCGSTAB solver sweeps with preconditioning, the ghost-cell boundary
// update after every sweep, and the solver's dot-product reductions. The
// sweeps all do the same work, so the engine runs them under Repeat; the
// timesteps stay a plain loop, because the first one first-touches the
// exchange buffers.
func (st *runState) timestep() {
	st.computePhase(EventDiffCoeff)
	st.exchange()
	st.eng.Repeat(st.cfg.InnerIters, st.sweep)
}

// sweep is one BiCGSTAB solver sweep.
func (st *runState) sweep() {
	st.computePhase(EventMatxvec)
	st.computePhase(EventPC)
	st.computePhase(EventPCJacGlb)
	st.computePhase(EventBicgstab)
	st.exchange()
	if st.cfg.Mode == MPI || st.cfg.Mode == Hybrid {
		st.eng.AllReduce(16) // two dot products per sweep
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
