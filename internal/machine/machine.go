// Package machine models the distributed-shared-memory ccNUMA platform the
// paper's case studies ran on: an SGI Altix, with two Itanium 2 (Madison)
// processors per node, nodes paired into C-bricks by a memory hub, and
// C-bricks connected by memory routers in a hierarchical NUMAlink topology.
//
// The model is analytic, not cycle-accurate: workloads describe their memory
// behaviour (access counts, working set, stride, temporal reuse, and the
// data region they touch) and the machine converts that description into
// cache/TLB miss counts, a local/remote main-memory split derived from page
// placement, and an exposed memory stall-cycle estimate. Page placement
// follows the Altix default first-touch policy — the first CPU to touch a
// page becomes its home node — which is exactly the mechanism behind the
// data-locality defect diagnosed in the GenIDLEST case study (§III-B).
package machine

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// CacheConfig describes one level of the cache hierarchy.
type CacheConfig struct {
	SizeBytes int64 // capacity in bytes
	LineBytes int64 // line size in bytes
	Latency   int64 // access latency in cycles (cost of a hit at this level)
}

// Config parameterizes a machine. All latencies are in processor cycles.
type Config struct {
	Nodes         int     // number of nodes (each node has local memory)
	CPUsPerNode   int     // processors per node
	ClockHz       float64 // processor clock
	IssueWidth    float64 // maximum instructions issued per cycle
	L1D, L2, L3   CacheConfig
	PageBytes     int64   // virtual memory page size
	TLBEntries    int64   // data TLB entries
	TLBPenalty    int64   // cycles per TLB miss (walk)
	LocalMemLat   int64   // cycles to local node memory (beyond L3)
	HopLat        int64   // additional cycles per NUMAlink router hop
	MemOverlap    float64 // fraction of raw memory latency hidden by MLP/prefetch (0..1)
	BranchPenalty int64   // cycles per mispredicted branch

	// BanksPerNode bounds how many concurrent accessors one node's memory
	// controller can service without queueing. When a MemProfile reports
	// more contenders than this, main-memory latency scales by the excess —
	// the mechanism that keeps node-0-resident data from scaling when every
	// thread hammers one hub (the GenIDLEST first-touch defect).
	BanksPerNode int

	// QueueExposure is the fraction of queueing delay that cannot be hidden
	// by prefetch or memory-level parallelism: while MemOverlap hides most
	// of the *latency* of well-prefetched streams, time spent waiting in a
	// saturated controller's queue is service time and stays exposed.
	QueueExposure float64

	// Power model parameters (consumed by internal/power, kept with the
	// machine because they are properties of the processor).
	TDPWatts  float64 // published thermal design power per processor
	IdleWatts float64 // idle power per processor
}

// Altix returns a configuration modeled on the SGI Altix systems in §III:
// Itanium 2 Madison (16KB L1D, 256KB unified L2, 6MB L3, 1.5 GHz, 6-wide
// issue) with NUMAlink4 interconnect latencies. nodes*cpusPerNode gives the
// processor count; the paper's Altix 300 is Altix(8, 2) and production runs
// used an Altix 3600 with 256 nodes.
func Altix(nodes, cpusPerNode int) Config {
	return Config{
		Nodes:         nodes,
		CPUsPerNode:   cpusPerNode,
		ClockHz:       1.5e9,
		IssueWidth:    6,
		L1D:           CacheConfig{SizeBytes: 16 << 10, LineBytes: 64, Latency: 1},
		L2:            CacheConfig{SizeBytes: 256 << 10, LineBytes: 128, Latency: 5},
		L3:            CacheConfig{SizeBytes: 6 << 20, LineBytes: 128, Latency: 14},
		PageBytes:     16 << 10,
		TLBEntries:    128,
		TLBPenalty:    25,
		LocalMemLat:   145,
		HopLat:        45,
		MemOverlap:    0.85,
		BranchPenalty: 6,
		BanksPerNode:  3,
		QueueExposure: 0.32,
		TDPWatts:      130,
		IdleWatts:     98,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("machine: Nodes must be positive, got %d", c.Nodes)
	case c.CPUsPerNode <= 0:
		return fmt.Errorf("machine: CPUsPerNode must be positive, got %d", c.CPUsPerNode)
	case c.ClockHz <= 0:
		return fmt.Errorf("machine: ClockHz must be positive, got %g", c.ClockHz)
	case c.IssueWidth <= 0:
		return fmt.Errorf("machine: IssueWidth must be positive, got %g", c.IssueWidth)
	case c.L1D.SizeBytes <= 0 || c.L2.SizeBytes <= 0 || c.L3.SizeBytes <= 0:
		return fmt.Errorf("machine: cache sizes must be positive")
	case c.L1D.LineBytes <= 0:
		return fmt.Errorf("machine: L1D line size must be positive")
	case c.PageBytes <= 0:
		return fmt.Errorf("machine: PageBytes must be positive, got %d", c.PageBytes)
	case c.MemOverlap < 0 || c.MemOverlap >= 1:
		return fmt.Errorf("machine: MemOverlap must be in [0,1), got %g", c.MemOverlap)
	}
	return nil
}

// Machine is an instantiated ccNUMA platform with page placement state. A
// Machine and its Regions belong to one goroutine — the one driving the
// sim.Engine built on it; nothing here is synchronised.
type Machine struct {
	cfg     Config
	regions map[string]*Region
	moves   uint64 // see Placements
}

// New builds a Machine from cfg. It panics if cfg is invalid, mirroring the
// "fail during initialization" convention for unusable setups.
func New(cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Machine{cfg: cfg, regions: make(map[string]*Region)}
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Placements counts the changes of page placement on the machine so far: a
// Touch that homes at least one page, a Place, and an AllocRegion (which
// hands out unplaced pages under a name). Two equal counts bracket a span in
// which no page of any region changed its home.
func (m *Machine) Placements() uint64 { return m.moves }

// CPUs returns the total processor count.
func (m *Machine) CPUs() int { return m.cfg.Nodes * m.cfg.CPUsPerNode }

// NodeOf returns the home node of a CPU.
func (m *Machine) NodeOf(cpu int) int {
	if cpu < 0 || cpu >= m.CPUs() {
		panic(fmt.Sprintf("machine: cpu %d out of range [0,%d)", cpu, m.CPUs()))
	}
	return cpu / m.cfg.CPUsPerNode
}

// Hops returns the number of NUMAlink router hops between two nodes. Two
// nodes in the same C-brick are one hub hop apart; across bricks the
// hierarchical router topology adds two hops per level of the tree at which
// the bricks' subtrees join.
func (m *Machine) Hops(a, b int) int {
	if a == b {
		return 0
	}
	brickA, brickB := a/2, b/2
	if brickA == brickB {
		return 1
	}
	level := bits.Len(uint(brickA ^ brickB)) // first tree level where paths join
	return 2 * level
}

// RemoteLat returns the main-memory access latency in cycles from a CPU on
// node `from` to memory homed on node `to`.
func (m *Machine) RemoteLat(from, to int) int64 {
	return m.cfg.LocalMemLat + int64(m.Hops(from, to))*m.cfg.HopLat
}

// MaxRemoteLat returns the worst-case remote latency on this machine (the
// paper's memory-stall formula uses the worst case pair as its estimate).
func (m *Machine) MaxRemoteLat() int64 {
	worst := int64(0)
	for n := 0; n < m.cfg.Nodes; n++ {
		if l := m.RemoteLat(0, n); l > worst {
			worst = l
		}
	}
	return worst
}

// Seconds converts a cycle count to wall-clock seconds.
func (m *Machine) Seconds(cycles uint64) float64 {
	return float64(cycles) / m.cfg.ClockHz
}

// Region is a named allocation of simulated memory, tracked page by page.
// homes[i] is the node that owns page i, or -1 while the page is untouched.
//
// A page never becomes unplaced again, so once the last one is claimed only
// Place can change a home. From then on placement queries are answered from
// a run index (see histogram) instead of a scan of homes, and Epoch tells a
// caller that kept an answer whether it still holds.
type Region struct {
	Name  string
	Bytes int64
	homes []int32 // -1 = unplaced
	page  int64
	nodes int     // the machine's node count: every placed home is in [0, nodes)
	moves *uint64 // the machine's Placements count

	unplaced int64     // pages still at -1; never rises
	index    *runIndex // built by the first query of a fully placed region, dropped by Place
	places   uint64    // Place calls so far
}

// runIndex is the placement of a fully placed region as maximal runs of
// pages with one home: run i covers pages [starts[i], starts[i+1]) — the
// last one to the end of the region — and lives on nodes[i]. A sequentially
// initialised region is one run, a block-parallel one a run per block.
type runIndex struct {
	starts []int64
	nodes  []int32
}

// AllocRegion creates (or replaces) a named region of the given size with
// all pages unplaced. Replacing mirrors a fresh allocation in a new run.
func (m *Machine) AllocRegion(name string, size int64) *Region {
	if size <= 0 {
		panic(fmt.Sprintf("machine: region %q size must be positive, got %d", name, size))
	}
	pages := (size + m.cfg.PageBytes - 1) / m.cfg.PageBytes
	r := &Region{Name: name, Bytes: size, homes: make([]int32, pages), page: m.cfg.PageBytes, nodes: m.cfg.Nodes, unplaced: pages, moves: &m.moves}
	for i := range r.homes {
		r.homes[i] = -1
	}
	m.regions[name] = r
	m.moves++
	return r
}

// Region returns a previously allocated region, or nil.
func (m *Machine) Region(name string) *Region { return m.regions[name] }

// Pages returns the number of pages in the region.
func (r *Region) Pages() int { return len(r.homes) }

// HomeOf returns the home node of the page containing byte offset off, or -1
// if the page has not been touched yet.
func (r *Region) HomeOf(off int64) int {
	p := off / r.page
	if p < 0 || p >= int64(len(r.homes)) {
		panic(fmt.Sprintf("machine: offset %d out of range for region %q (%d bytes)", off, r.Name, r.Bytes))
	}
	return int(r.homes[p])
}

// Touch applies the first-touch placement policy to [off, off+length): any
// unplaced page in the range becomes homed on `node`. Already-placed pages
// are unaffected. It returns the number of pages newly placed.
func (r *Region) Touch(off, length int64, node int) int {
	r.checkNode(node)
	first, last := r.pageRange(off, length)
	if r.unplaced == 0 {
		return 0
	}
	placed := 0
	for p := first; p <= last; p++ {
		if r.homes[p] < 0 {
			r.homes[p] = int32(node)
			placed++
		}
	}
	if placed > 0 {
		r.unplaced -= int64(placed)
		*r.moves++
	}
	return placed
}

// Place forces the home of every page in [off, off+length) to `node`,
// modeling an explicit placement or migration (dplace-style).
func (r *Region) Place(off, length int64, node int) {
	r.checkNode(node)
	first, last := r.pageRange(off, length)
	for p := first; p <= last; p++ {
		if r.homes[p] < 0 {
			r.unplaced--
		}
		r.homes[p] = int32(node)
	}
	r.index = nil
	r.places++
	*r.moves++
}

// Epoch names a placement that cannot change without the value changing: it
// is 0 while any page is unplaced (a Touch may still home one) and from then
// on moves only when Place runs. Two equal non-zero epochs of one region
// bracket a span in which every placement query had one answer.
func (r *Region) Epoch() uint64 {
	if r.unplaced != 0 {
		return 0
	}
	return r.places + 1
}

// NodeShare returns, for each node, the fraction of placed pages in
// [off, off+length) homed there. Unplaced pages are excluded; if no page in
// the range is placed the returned slice is all zeros and ok is false.
func (r *Region) NodeShare(off, length int64, nodes int) (share []float64, ok bool) {
	first, last := r.pageRange(off, length)
	counts := make([]int64, nodes)
	placed := r.histogram(first, last, counts)
	share = make([]float64, nodes)
	if placed == 0 {
		return share, false
	}
	for i, n := range counts {
		share[i] = float64(n) / float64(placed)
	}
	return share, true
}

// histogram adds to counts[n] the number of pages in [first, last] homed on
// node n and returns how many pages of the range are placed. It is the one
// placement query: AccessCost and NodeShare both divide its integer counts.
//
// A fully placed region is answered from the run index in O(runs in range):
// find the run holding first, add run overlaps until past last. Until then
// the range is scanned page by page, because unplaced pages must stay out
// of the counts.
func (r *Region) histogram(first, last int64, counts []int64) (placed int64) {
	if r.unplaced != 0 {
		for _, h := range r.homes[first : last+1] {
			if h >= 0 {
				counts[h]++
				placed++
			}
		}
		return placed
	}
	if r.index == nil {
		r.index = r.buildIndex()
	}
	idx := r.index
	// The run holding first is the last one starting at or before it.
	lo := sort.Search(len(idx.starts), func(i int) bool { return idx.starts[i] > first }) - 1
	for p, run := first, lo; p <= last; run++ {
		end := last + 1
		if run+1 < len(idx.starts) && idx.starts[run+1] < end {
			end = idx.starts[run+1]
		}
		counts[idx.nodes[run]] += end - p
		p = end
	}
	return last - first + 1
}

// buildIndex scans the homes of a fully placed region once.
func (r *Region) buildIndex() *runIndex {
	idx := &runIndex{}
	prev := int32(-1)
	for p, h := range r.homes {
		if h != prev {
			idx.starts = append(idx.starts, int64(p))
			idx.nodes = append(idx.nodes, h)
			prev = h
		}
	}
	return idx
}

// checkNode panics on a node the machine does not have. A bad home stored
// here would only surface later, as an index out of range in some reader
// that names neither the region nor the caller.
func (r *Region) checkNode(node int) {
	if node < 0 || node >= r.nodes {
		panic(fmt.Sprintf("machine: node %d out of range [0,%d) placing pages of region %q", node, r.nodes, r.Name))
	}
}

func (r *Region) pageRange(off, length int64) (first, last int64) {
	if length <= 0 {
		panic(fmt.Sprintf("machine: non-positive touch length %d on region %q", length, r.Name))
	}
	if off < 0 || off+length > int64(len(r.homes))*r.page {
		panic(fmt.Sprintf("machine: range [%d,%d) out of bounds for region %q (%d bytes)",
			off, off+length, r.Name, int64(len(r.homes))*r.page))
	}
	return off / r.page, (off + length - 1) / r.page
}

// MemProfile describes the memory behaviour of a kernel execution, in the
// terms the analytic cache model needs.
type MemProfile struct {
	Loads      uint64  // load instructions issued
	Stores     uint64  // store instructions issued
	WorkingSet int64   // distinct bytes touched
	StrideB    int64   // bytes between consecutive accesses (<= 0 means unit line stride)
	Reuse      float64 // average re-references per cache line after its first fill (>= 0)
	Contenders int     // concurrent threads hitting the same home node (0/1 = uncontended)

	// Hot in [0,1] is the fraction of the working set expected to still be
	// resident in the last-level cache from recent use (the model is
	// otherwise stateless across kernel executions). Only meaningful when
	// the working set fits in L3; larger working sets cannot be resident.
	Hot float64
}

// MemCost is the machine's response to a MemProfile over a region slice.
type MemCost struct {
	L1DRefs, L1DMiss uint64
	L2Refs, L2Miss   uint64
	L3Refs, L3Miss   uint64
	TLBMiss          uint64
	Local, Remote    uint64 // main-memory access split by page home
	StallCycles      uint64 // exposed memory stall cycles (after overlap)
	RawLatency       uint64 // latency-weighted stall cycles before overlap
}

// AccessCost runs the analytic cache cascade for a kernel executing on
// `cpu` that touches region r over [off, off+length) with profile p. The
// caller is responsible for having Touch()ed the range first if first-touch
// placement should apply (an untouched page is charged as local, matching
// zero-fill-on-demand behaviour).
//
// The cascade: all distinct lines miss once at every level ("cold" misses);
// re-references miss at level i with probability (1 - Si/WS) when the
// working set exceeds the capacity Si (an LRU-over-uniform-reuse
// approximation). Each miss at level i pays the latency of level i+1; L3
// misses pay local or worst-observed remote memory latency according to the
// page placement of the touched range.
func (m *Machine) AccessCost(cpu int, r *Region, off, length int64, p MemProfile) (c MemCost) {
	accesses := p.Loads + p.Stores
	if accesses == 0 {
		return c
	}
	ws := p.WorkingSet
	if ws <= 0 {
		ws = length
	}
	lineStride := m.cfg.L1D.LineBytes
	if p.StrideB > lineStride {
		lineStride = p.StrideB
	}
	cold := uint64(ws / lineStride)
	if cold == 0 {
		cold = 1
	}
	if cold > accesses {
		cold = accesses
	}

	c.L1DRefs = accesses
	c.L1DMiss = cascadeMiss(accesses, cold, ws, m.cfg.L1D.SizeBytes, p.Reuse)
	c.L2Refs = c.L1DMiss
	// Below L1 the traffic is already line-grain — each distinct line visit
	// appears once — so no further temporal reuse is credited.
	c.L2Miss = cascadeMiss(c.L2Refs, minU64(cold, c.L2Refs), ws, m.cfg.L2.SizeBytes, 0)
	c.L3Refs = c.L2Miss
	c.L3Miss = cascadeMiss(c.L3Refs, minU64(cold, c.L3Refs), ws, m.cfg.L3.SizeBytes, 0)
	// Residency credit: a working set that fits in L3 and was recently used
	// keeps Hot of its lines resident, so that fraction of would-be L3
	// misses never reaches memory.
	if p.Hot > 0 && ws <= m.cfg.L3.SizeBytes {
		hot := p.Hot
		if hot > 1 {
			hot = 1
		}
		c.L3Miss = uint64(float64(c.L3Miss) * (1 - hot))
	}

	// TLB: every distinct page walks once; capacity misses when the working
	// set exceeds TLB reach, damped for the TLB's high associativity.
	pages := uint64(ws / m.cfg.PageBytes)
	if pages == 0 {
		pages = 1
	}
	if pages > accesses {
		pages = accesses
	}
	reach := m.cfg.TLBEntries * m.cfg.PageBytes
	c.TLBMiss = pages
	if ws > reach {
		c.TLBMiss += uint64(float64(accesses-pages) * (1 - float64(reach)/float64(ws)) * 0.05)
	}

	// Local/remote split from page placement: per-node page counts from the
	// region's one placement query, in a stack-resident array — AccessCost
	// runs once per memory reference of every kernel execution.
	// float64(count)/float64(placed) is NodeShare's division bit for bit,
	// and the node-order loop keeps the summation order.
	myNode := m.NodeOf(cpu)
	var countsBuf [64]int64
	counts := countsBuf[:]
	if m.cfg.Nodes > len(countsBuf) {
		counts = make([]int64, m.cfg.Nodes)
	}
	counts = counts[:m.cfg.Nodes]
	first, last := r.pageRange(off, length)
	placed := r.histogram(first, last, counts)
	remoteFrac, avgRemoteLat := 0.0, float64(m.cfg.LocalMemLat)
	if placed > 0 {
		weighted := 0.0
		for node, n := range counts {
			if node == myNode || n == 0 {
				continue
			}
			s := float64(n) / float64(placed)
			remoteFrac += s
			weighted += s * float64(m.RemoteLat(myNode, node))
		}
		if remoteFrac > 0 {
			avgRemoteLat = weighted / remoteFrac
		}
	}
	c.Remote = uint64(float64(c.L3Miss) * remoteFrac)
	c.Local = c.L3Miss - c.Remote

	// Memory-controller queueing: more contenders than banks on the home
	// node queue up by the excess factor.
	queue := 1.0
	if banks := m.cfg.BanksPerNode; banks > 0 && p.Contenders > banks {
		queue = float64(p.Contenders) / float64(banks)
	}
	cacheRaw := float64(c.L1DMiss)*float64(m.cfg.L2.Latency) +
		float64(c.L2Miss)*float64(m.cfg.L3.Latency) +
		float64(c.TLBMiss)*float64(m.cfg.TLBPenalty)
	memRaw := float64(c.Local)*float64(m.cfg.LocalMemLat) + float64(c.Remote)*avgRemoteLat
	c.RawLatency = uint64(cacheRaw + memRaw*queue)
	// MemOverlap hides latency of prefetchable traffic; queueing delay is
	// service time and only partially overlaps (QueueExposure).
	exposed := (cacheRaw+memRaw)*(1-m.cfg.MemOverlap) +
		memRaw*(queue-1)*m.cfg.QueueExposure
	c.StallCycles = uint64(exposed)
	return c
}

// cascadeMiss returns the miss count at a level of capacity size for `refs`
// references of which `cold` are first-touches of distinct lines. When the
// working set exceeds the capacity, steady-state misses approach one per
// line visit — refs/(1+reuse) — rather than one per reference, because the
// `reuse` re-references of a line land while it is still resident (spatial
// and short-range temporal locality). The capacity fraction blends between
// the fits-in-cache and streaming regimes continuously.
func cascadeMiss(refs, cold uint64, ws, size int64, reuse float64) uint64 {
	if refs == 0 {
		return 0
	}
	if cold > refs {
		cold = refs
	}
	miss := cold
	if ws > size {
		if reuse < 0 {
			reuse = 0
		}
		capFrac := 1 - float64(size)/float64(ws)
		stream := float64(refs) / (1 + reuse)
		if extra := stream - float64(cold); extra > 0 {
			miss += uint64(math.Round(extra * capFrac))
		}
	}
	if miss > refs {
		miss = refs
	}
	return miss
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
