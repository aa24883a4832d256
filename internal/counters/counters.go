// Package counters defines the simulated hardware performance counter
// taxonomy used throughout the toolchain. The names mirror the Itanium 2
// (Madison) PMU events that the paper's analyses consume — CPU_CYCLES,
// BACK_END_BUBBLE_ALL, the stall-source breakdown from Jarp's bottleneck
// methodology, the cache/TLB miss hierarchy, and the ccNUMA local/remote
// access split — so that analysis scripts and inference rules can be written
// against the same metric vocabulary the paper uses.
//
// A Set is a fixed-size array of 64-bit counts indexed by ID. Sets are cheap
// to copy, which the measurement runtime exploits: entering an instrumented
// region snapshots the running thread's Set, and leaving it subtracts the
// snapshot to obtain the region's inclusive counts.
package counters

import "fmt"

// ID identifies a single hardware counter.
type ID int

// The counter taxonomy. The first block is the core execution pipeline, the
// second the stall (bubble) decomposition, the third the memory hierarchy,
// and the fourth the OpenMP/MPI runtime events that the parallel overhead
// model accounts for.
const (
	// Pipeline.
	Cycles         ID = iota // CPU_CYCLES: total elapsed cycles on the thread
	InstrCompleted           // IA64_INST_RETIRED: instructions completed (retired)
	InstrIssued              // INST_DISPERSED: instructions issued to the pipeline
	FPOps                    // FP_OPS_RETIRED: floating point operations completed
	IntOps                   // integer ALU operations completed
	Loads                    // LOADS_RETIRED
	Stores                   // STORES_RETIRED
	Branches                 // BR_MISPRED_DETAIL_ALL_ALL_PRED: branches executed

	// Stall decomposition (BACK_END_BUBBLE_ALL = sum of the components,
	// following Jarp's Itanium 2 bottleneck methodology cited in §III-B).
	StallAll        // BACK_END_BUBBLE_ALL: total back end stall cycles
	StallL1D        // BE_L1D_FPU_BUBBLE_L1D: stalls from L1D cache misses
	StallFP         // BE_L1D_FPU_BUBBLE_FPU: floating point (register feed) stalls
	StallBranch     // branch misprediction stall cycles
	StallIMiss      // instruction cache miss stall cycles
	StallStack      // register stack engine stall cycles
	StallRegDep     // pipeline inter-register dependency stall cycles
	StallFEFlush    // processor front end flush stall cycles
	BranchMispredic // count of mispredicted branches

	// Memory hierarchy.
	L1DRefs    // L1D references (loads+stores reaching L1D)
	L1IRefs    // L1I references (instruction fetches)
	L1DMisses  // L1D misses
	L2Refs     // L2_DATA_REFERENCES_L2_ALL
	L2Misses   // L2_MISSES
	L3Refs     // L3_REFERENCES
	L3Misses   // L3_MISSES
	TLBMisses  // DTLB misses requiring a walk
	LocalMem   // main-memory accesses satisfied by the local node
	RemoteMem  // main-memory accesses satisfied by a remote node (NUMAlink)
	MemLatency // accumulated memory stall cycles weighted by level latency

	// Parallel runtime.
	OMPBarrierCycles  // cycles spent waiting in OpenMP barriers
	OMPSchedDispatch  // number of schedule chunk dispatches
	OMPForkJoinCycles // cycles of fork/join overhead
	OMPCriticalCycles // cycles spent waiting to enter critical sections / locks
	MPIMessages       // MPI point-to-point messages sent
	MPIBytes          // MPI bytes sent
	MPIWaitCycles     // cycles spent waiting in MPI operations

	NumIDs // number of counter IDs; must remain last
)

// names maps IDs to the exported metric names used in profiles, scripts and
// rule files. The pipeline and stall names follow the Itanium 2 PMU
// vocabulary the paper quotes.
var names = [NumIDs]string{
	Cycles:         "CPU_CYCLES",
	InstrCompleted: "INSTRUCTIONS_COMPLETED",
	InstrIssued:    "INSTRUCTIONS_ISSUED",
	FPOps:          "FP_OPS_RETIRED",
	IntOps:         "INT_OPS_RETIRED",
	Loads:          "LOADS_RETIRED",
	Stores:         "STORES_RETIRED",
	Branches:       "BRANCHES_RETIRED",

	StallAll:        "BACK_END_BUBBLE_ALL",
	StallL1D:        "BE_L1D_FPU_BUBBLE_L1D",
	StallFP:         "BE_L1D_FPU_BUBBLE_FPU",
	StallBranch:     "BE_BUBBLE_BRANCH",
	StallIMiss:      "BE_BUBBLE_IMISS",
	StallStack:      "BE_BUBBLE_RSE",
	StallRegDep:     "BE_BUBBLE_GRGR",
	StallFEFlush:    "BE_BUBBLE_FEFLUSH",
	BranchMispredic: "BR_MISPRED_DETAIL",

	L1DRefs:    "L1D_REFERENCES",
	L1IRefs:    "L1I_REFERENCES",
	L1DMisses:  "L1D_READ_MISSES",
	L2Refs:     "L2_DATA_REFERENCES_L2_ALL",
	L2Misses:   "L2_MISSES",
	L3Refs:     "L3_REFERENCES",
	L3Misses:   "L3_MISSES",
	TLBMisses:  "DTLB_MISSES",
	LocalMem:   "LOCAL_MEMORY_ACCESSES",
	RemoteMem:  "REMOTE_MEMORY_ACCESSES",
	MemLatency: "MEMORY_STALL_CYCLES",

	OMPBarrierCycles:  "OMP_BARRIER_CYCLES",
	OMPSchedDispatch:  "OMP_SCHEDULE_DISPATCHES",
	OMPForkJoinCycles: "OMP_FORK_JOIN_CYCLES",
	OMPCriticalCycles: "OMP_CRITICAL_CYCLES",
	MPIMessages:       "MPI_MESSAGES",
	MPIBytes:          "MPI_BYTES",
	MPIWaitCycles:     "MPI_WAIT_CYCLES",
}

var byName map[string]ID

func init() {
	byName = make(map[string]ID, NumIDs)
	for id := ID(0); id < NumIDs; id++ {
		if names[id] == "" {
			panic(fmt.Sprintf("counters: ID %d has no name", id))
		}
		byName[names[id]] = id
	}
}

// Name returns the exported metric name for id.
func (id ID) Name() string {
	if id < 0 || id >= NumIDs {
		return fmt.Sprintf("UNKNOWN_COUNTER_%d", int(id))
	}
	return names[id]
}

// String implements fmt.Stringer.
func (id ID) String() string { return id.Name() }

// Lookup resolves a metric name back to its counter ID.
func Lookup(name string) (ID, bool) {
	id, ok := byName[name]
	return id, ok
}

// Names returns all counter names in ID order.
func Names() []string {
	out := make([]string, NumIDs)
	for id := ID(0); id < NumIDs; id++ {
		out[id] = names[id]
	}
	return out
}

// StallComponents lists the stall-source counters whose sum equals StallAll,
// in the order of the Total Stall Cycles formula quoted in §III-B.
func StallComponents() []ID {
	return []ID{StallL1D, StallBranch, StallIMiss, StallStack, StallFP, StallRegDep, StallFEFlush}
}

// Set is a complete sample of all counters. The zero value is an empty
// sample ready to use.
type Set [NumIDs]uint64

// Add accumulates other into s.
func (s *Set) Add(other *Set) {
	for i := range s {
		s[i] += other[i]
	}
}

// Get returns the count for id.
func (s *Set) Get(id ID) uint64 { return s[id] }

// Inc adds n to the counter id.
func (s *Set) Inc(id ID, n uint64) { s[id] += n }
