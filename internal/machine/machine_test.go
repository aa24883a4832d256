package machine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func altix8() *Machine { return New(Altix(8, 2)) }

func TestConfigValidate(t *testing.T) {
	good := Altix(4, 2)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Nodes = 0 },
		func(c *Config) { c.CPUsPerNode = -1 },
		func(c *Config) { c.ClockHz = 0 },
		func(c *Config) { c.IssueWidth = 0 },
		func(c *Config) { c.L2.SizeBytes = 0 },
		func(c *Config) { c.L1D.LineBytes = 0 },
		func(c *Config) { c.PageBytes = 0 },
		func(c *Config) { c.MemOverlap = 1.0 },
		func(c *Config) { c.MemOverlap = -0.1 },
	}
	for i, mutate := range cases {
		c := Altix(4, 2)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with invalid config did not panic")
		}
	}()
	cfg := Altix(4, 2)
	cfg.Nodes = 0
	New(cfg)
}

func TestTopology(t *testing.T) {
	m := altix8()
	if m.CPUs() != 16 {
		t.Fatalf("CPUs = %d, want 16", m.CPUs())
	}
	if m.NodeOf(0) != 0 || m.NodeOf(1) != 0 || m.NodeOf(2) != 1 || m.NodeOf(15) != 7 {
		t.Fatal("NodeOf mapping wrong")
	}
	if h := m.Hops(3, 3); h != 0 {
		t.Fatalf("same-node hops = %d", h)
	}
	if h := m.Hops(0, 1); h != 1 {
		t.Fatalf("same-brick hops = %d, want 1 (hub)", h)
	}
	if h := m.Hops(0, 2); h < 2 {
		t.Fatalf("cross-brick hops = %d, want >= 2", h)
	}
	// Hops are symmetric.
	for a := 0; a < 8; a++ {
		for b := 0; b < 8; b++ {
			if m.Hops(a, b) != m.Hops(b, a) {
				t.Fatalf("hops not symmetric for (%d,%d)", a, b)
			}
		}
	}
	// Farther bricks cost at least as much as nearer ones from node 0.
	if m.Hops(0, 7) < m.Hops(0, 2) {
		t.Fatal("hop count should not decrease with brick distance")
	}
}

func TestRemoteLatency(t *testing.T) {
	m := altix8()
	local := m.RemoteLat(0, 0)
	if local != m.Config().LocalMemLat {
		t.Fatalf("RemoteLat(0,0) = %d, want LocalMemLat %d", local, m.Config().LocalMemLat)
	}
	far := m.RemoteLat(0, 7)
	if far <= local {
		t.Fatalf("remote latency %d not greater than local %d", far, local)
	}
	if worst := m.MaxRemoteLat(); worst < far {
		t.Fatalf("MaxRemoteLat %d < observed %d", worst, far)
	}
}

func TestNodeOfPanicsOutOfRange(t *testing.T) {
	m := altix8()
	defer func() {
		if recover() == nil {
			t.Fatal("NodeOf out of range did not panic")
		}
	}()
	m.NodeOf(16)
}

func TestSeconds(t *testing.T) {
	m := altix8()
	if s := m.Seconds(uint64(m.Config().ClockHz)); s != 1.0 {
		t.Fatalf("Seconds(clock) = %g, want 1.0", s)
	}
}

func TestFirstTouchPlacement(t *testing.T) {
	m := altix8()
	pageB := m.Config().PageBytes
	r := m.AllocRegion("grid", 10*pageB)
	if r.Pages() != 10 {
		t.Fatalf("Pages = %d, want 10", r.Pages())
	}
	if r.HomeOf(0) != -1 {
		t.Fatal("fresh page should be unplaced")
	}
	placed := r.Touch(0, 3*pageB, 2)
	if placed != 3 {
		t.Fatalf("Touch placed %d pages, want 3", placed)
	}
	if r.HomeOf(0) != 2 || r.HomeOf(2*pageB) != 2 || r.HomeOf(3*pageB) != -1 {
		t.Fatal("first-touch homes wrong")
	}
	// Second toucher does not steal already-placed pages.
	if got := r.Touch(0, 3*pageB, 5); got != 0 {
		t.Fatalf("re-touch placed %d pages, want 0", got)
	}
	if r.HomeOf(0) != 2 {
		t.Fatal("first-touch page was re-homed")
	}
	// Explicit Place overrides.
	r.Place(0, pageB, 6)
	if r.HomeOf(0) != 6 {
		t.Fatal("Place did not override home")
	}
}

func TestNodeShare(t *testing.T) {
	m := altix8()
	pageB := m.Config().PageBytes
	r := m.AllocRegion("x", 4*pageB)
	if _, ok := r.NodeShare(0, 4*pageB, 8); ok {
		t.Fatal("NodeShare of unplaced region should report !ok")
	}
	r.Touch(0, 2*pageB, 0)
	r.Touch(2*pageB, 2*pageB, 3)
	share, ok := r.NodeShare(0, 4*pageB, 8)
	if !ok {
		t.Fatal("NodeShare !ok after placement")
	}
	if share[0] != 0.5 || share[3] != 0.5 {
		t.Fatalf("share = %v", share)
	}
}

func TestRegionBoundsPanics(t *testing.T) {
	m := altix8()
	r := m.AllocRegion("r", m.Config().PageBytes)
	for name, f := range map[string]func(){
		"negative offset": func() { r.Touch(-1, 10, 0) },
		"past end":        func() { r.Touch(0, m.Config().PageBytes+1, 0) },
		"zero length":     func() { r.Touch(0, 0, 0) },
		"homeof oob":      func() { r.HomeOf(m.Config().PageBytes * 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// A node the machine does not have is refused where it is handed in, with
// the region and the node in the message, not stored for a later reader to
// trip over.
func TestRegionBadNodePanics(t *testing.T) {
	m := New(Altix(16, 2))
	pageB := m.Config().PageBytes
	r := m.AllocRegion("grid", 4*pageB)
	for _, node := range []int{-1, 16, 99} {
		for name, f := range map[string]func(){
			"Touch": func() { r.Touch(0, pageB, node) },
			"Place": func() { r.Place(0, pageB, node) },
		} {
			func() {
				defer func() {
					msg := fmt.Sprint(recover())
					if !strings.Contains(msg, `"grid"`) || !strings.Contains(msg, fmt.Sprintf("node %d ", node)) {
						t.Errorf("%s(node %d): panic %q does not name region and node", name, node, msg)
					}
				}()
				f()
			}()
		}
	}
	if r.HomeOf(0) != -1 {
		t.Fatal("a refused placement still stored a home")
	}
	if _, ok := r.NodeShare(0, 4*pageB, 16); ok {
		t.Fatal("a refused placement still counts as placed")
	}
}

// scanMirror rebuilds r's placement, page by page from HomeOf, in a region
// with one spare page that is never placed: a region with an unplaced page
// has no run index, so queries on the mirror take the page scan.
func scanMirror(m *Machine, r *Region) *Region {
	mirror := m.AllocRegion("mirror", int64(r.Pages()+1)*r.page)
	for p := int64(0); p < int64(r.Pages()); p++ {
		if h := r.HomeOf(p * r.page); h >= 0 {
			mirror.Place(p*r.page, r.page, h)
		}
	}
	return mirror
}

// scanShare is NodeShare computed from HomeOf alone.
func scanShare(r *Region, off, length int64, nodes int) ([]float64, bool) {
	share := make([]float64, nodes)
	placed := 0
	for p := off / r.page; p <= (off+length-1)/r.page; p++ {
		if h := r.HomeOf(p * r.page); h >= 0 {
			share[h]++
			placed++
		}
	}
	if placed == 0 {
		return share, false
	}
	for i := range share {
		share[i] /= float64(placed)
	}
	return share, true
}

// Property: whichever way a placement query is answered — page scan while
// the region has unplaced pages, run index once it has none, a rebuilt index
// after a Place — every MemCost and every share vector equals, bit for bit,
// what a page-by-page reading of HomeOf gives. Ranges start and end in the
// middle of runs and pages; more than 64 nodes takes AccessCost's heap
// fallback for the per-node counts.
func TestPlacementQueriesMatchPageScan(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	indexed, wide := 0, 0
	for trial := 0; trial < 150; trial++ {
		cfg := Altix(1+rng.Intn(70), 1+rng.Intn(2))
		m := New(cfg)
		pages := int64(1 + rng.Intn(400))
		bytes := pages*cfg.PageBytes - rng.Int63n(cfg.PageBytes) // last page partly used
		r := m.AllocRegion("r", bytes)
		if cfg.Nodes > 64 {
			wide++
		}
		randRange := func() (off, length int64) {
			off = rng.Int63n(bytes)
			max := bytes - off
			if rng.Intn(3) == 0 && max > cfg.PageBytes {
				max = cfg.PageBytes // single page, or two halves
			}
			return off, 1 + rng.Int63n(max)
		}
		const ops = 80
		for op := 0; op < ops; op++ {
			off, length := randRange()
			switch k := rng.Intn(10); {
			case op == ops/2:
				// Whatever is still unplaced is placed now: from here on
				// the region answers from its index.
				r.Touch(0, bytes, rng.Intn(cfg.Nodes))
				if r.unplaced != 0 {
					t.Fatalf("trial %d: %d pages unplaced after touching the whole region", trial, r.unplaced)
				}
			case k < 3:
				before := 0
				for p := off / r.page; p <= (off+length-1)/r.page; p++ {
					if r.HomeOf(p*r.page) < 0 {
						before++
					}
				}
				if got := r.Touch(off, length, rng.Intn(cfg.Nodes)); got != before {
					t.Fatalf("trial %d op %d: Touch placed %d pages, %d were unplaced", trial, op, got, before)
				}
			case k < 4:
				r.Place(off, length, rng.Intn(cfg.Nodes))
			case k < 8:
				prof := MemProfile{
					Loads:      uint64(rng.Intn(1 << 20)),
					Stores:     uint64(rng.Intn(1 << 18)),
					WorkingSet: []int64{0, length, 64 << 20}[rng.Intn(3)],
					StrideB:    []int64{0, 8, 256}[rng.Intn(3)],
					Reuse:      float64(rng.Intn(16)),
					Contenders: rng.Intn(2 * cfg.CPUsPerNode * cfg.Nodes),
					Hot:        float64(rng.Intn(3)) / 2,
				}
				cpu := rng.Intn(m.CPUs())
				got := m.AccessCost(cpu, r, off, length, prof)
				if want := m.AccessCost(cpu, scanMirror(m, r), off, length, prof); got != want {
					t.Fatalf("trial %d op %d: AccessCost over [%d,+%d) = %+v, page scan gives %+v", trial, op, off, length, got, want)
				}
				if r.index != nil {
					indexed++
				}
			default:
				got, ok := r.NodeShare(off, length, cfg.Nodes)
				want, wantOK := scanShare(r, off, length, cfg.Nodes)
				if ok != wantOK {
					t.Fatalf("trial %d op %d: NodeShare over [%d,+%d) = %v %v, page scan gives %v %v", trial, op, off, length, got, ok, want, wantOK)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("trial %d op %d: share[%d] = %v, page scan gives %v", trial, op, i, got[i], want[i])
					}
				}
			}
		}
	}
	if indexed == 0 || wide == 0 {
		t.Fatalf("%d AccessCost calls answered from an index, %d machines over 64 nodes: the property was not exercised", indexed, wide)
	}
}

func TestFullyPlacedRegionFastPaths(t *testing.T) {
	m := altix8()
	size := int64(64 << 20)
	r := m.AllocRegion("a", size)
	for n := int64(0); n < 8; n++ {
		r.Touch(n*size/8, size/8, int(n))
	}
	if got := r.Touch(0, size, 3); got != 0 {
		t.Fatalf("Touch on a fully placed region placed %d pages", got)
	}
	if r.HomeOf(0) != 0 || r.HomeOf(size-1) != 7 {
		t.Fatal("Touch on a fully placed region re-homed a page")
	}
	prof := MemProfile{Loads: 1 << 20, Stores: 1 << 18, WorkingSet: size, Reuse: 4}
	if allocs := testing.AllocsPerRun(100, func() { m.AccessCost(5, r, size/16, size/2, prof) }); allocs != 0 {
		t.Fatalf("AccessCost on an indexed region allocates %v times per call", allocs)
	}
}

func TestAccessCostLocalVsRemote(t *testing.T) {
	m := altix8()
	size := int64(64 << 20) // 64 MB: far exceeds L3 so misses reach memory
	r := m.AllocRegion("a", size)

	prof := MemProfile{Loads: 1 << 20, Stores: 1 << 18, WorkingSet: size, Reuse: 4}

	// All pages homed on node 0; CPU 0 (node 0) sees local accesses only.
	r.Place(0, size, 0)
	local := m.AccessCost(0, r, 0, size, prof)
	if local.L3Miss == 0 {
		t.Fatal("expected L3 misses for 64MB working set")
	}
	if local.Remote != 0 {
		t.Fatalf("node-0 CPU on node-0 data saw %d remote accesses", local.Remote)
	}

	// Same access pattern from CPU 14 (node 7): all memory traffic remote.
	remote := m.AccessCost(14, r, 0, size, prof)
	if remote.Local != 0 {
		t.Fatalf("expected all-remote, got %d local", remote.Local)
	}
	if remote.StallCycles <= local.StallCycles {
		t.Fatalf("remote stalls %d not greater than local %d", remote.StallCycles, local.StallCycles)
	}
}

func TestAccessCostCacheResident(t *testing.T) {
	m := altix8()
	r := m.AllocRegion("small", 1<<20)
	r.Place(0, 1<<20, 0)
	// 8KB working set fits in L1D: only cold misses, nothing should reach L3
	// beyond the cold lines.
	prof := MemProfile{Loads: 100000, WorkingSet: 8 << 10, Reuse: 100}
	c := m.AccessCost(0, r, 0, 8<<10, prof)
	coldLines := uint64((8 << 10) / m.Config().L1D.LineBytes)
	if c.L1DMiss != coldLines {
		t.Fatalf("L1D misses = %d, want cold-only %d", c.L1DMiss, coldLines)
	}
	if c.L3Miss > coldLines {
		t.Fatalf("L3 misses %d exceed cold lines %d", c.L3Miss, coldLines)
	}
}

func TestAccessCostMissMonotoneInWorkingSet(t *testing.T) {
	m := altix8()
	r := m.AllocRegion("m", 256<<20)
	r.Place(0, 256<<20, 0)
	prev := uint64(0)
	for _, ws := range []int64{8 << 10, 256 << 10, 8 << 20, 64 << 20, 256 << 20} {
		c := m.AccessCost(0, r, 0, ws, MemProfile{Loads: 1 << 20, WorkingSet: ws, Reuse: 4})
		if c.L3Miss < prev {
			t.Fatalf("L3 misses decreased when working set grew to %d", ws)
		}
		prev = c.L3Miss
	}
}

func TestContentionScalesMemoryLatency(t *testing.T) {
	m := altix8()
	size := int64(64 << 20)
	r := m.AllocRegion("hot", size)
	r.Place(0, size, 0)
	prof := MemProfile{Loads: 1 << 20, WorkingSet: size, Reuse: 2}

	alone := m.AccessCost(0, r, 0, size, prof)
	prof.Contenders = 16
	crowded := m.AccessCost(0, r, 0, size, prof)
	if crowded.StallCycles <= alone.StallCycles {
		t.Fatalf("16 contenders (%d) should stall more than 1 (%d)",
			crowded.StallCycles, alone.StallCycles)
	}
	// The exposed-stall ratio is bounded by the queueing-delay formula:
	// 1 + (queue-1)*QueueExposure/(1-MemOverlap), reached when memory
	// accesses dominate the raw latency.
	c := m.Config()
	queue := 16.0 / float64(c.BanksPerNode)
	bound := 1 + (queue-1)*c.QueueExposure/(1-c.MemOverlap)
	if ratio := float64(crowded.StallCycles) / float64(alone.StallCycles); ratio > bound*1.01 {
		t.Fatalf("queueing overshoot: ratio %g > bound %g", ratio, bound)
	}
	// At or below the bank count there is no queueing.
	prof.Contenders = m.Config().BanksPerNode
	if got := m.AccessCost(0, r, 0, size, prof); got.StallCycles != alone.StallCycles {
		t.Fatalf("contenders <= banks should not queue: %d vs %d", got.StallCycles, alone.StallCycles)
	}
	// Cache-resident traffic is nearly unaffected: only the cold misses
	// reach memory, so the relative penalty is far smaller than for the
	// memory-resident profile.
	small := MemProfile{Loads: 1 << 20, WorkingSet: 8 << 10, Reuse: 100, Contenders: 16}
	smallAlone := small
	smallAlone.Contenders = 0
	sc := float64(m.AccessCost(0, r, 0, 8<<10, small).StallCycles)
	_ = smallAlone
	if sc > float64(alone.StallCycles)*0.01 {
		t.Fatalf("cache-resident contended stalls %g should be tiny next to memory-bound uncontended %d",
			sc, alone.StallCycles)
	}
}

func TestAccessCostZeroAccesses(t *testing.T) {
	m := altix8()
	r := m.AllocRegion("z", 1<<20)
	c := m.AccessCost(0, r, 0, 1<<20, MemProfile{})
	if c != (MemCost{}) {
		t.Fatalf("zero accesses produced non-zero cost %+v", c)
	}
}

// Property: the cache cascade never produces more misses than references at
// any level, and refs at level i+1 equal misses at level i.
func TestQuickCascadeConsistency(t *testing.T) {
	m := altix8()
	size := int64(128 << 20)
	r := m.AllocRegion("q", size)
	r.Place(0, size, 0)
	f := func(loads, stores uint32, wsExp uint8, cpu uint8) bool {
		ws := int64(1) << (10 + wsExp%17) // 1KB .. 64MB
		if ws > size {
			ws = size
		}
		p := MemProfile{Loads: uint64(loads), Stores: uint64(stores), WorkingSet: ws, Reuse: 2}
		c := m.AccessCost(int(cpu)%m.CPUs(), r, 0, ws, p)
		if c.L1DMiss > c.L1DRefs || c.L2Miss > c.L2Refs || c.L3Miss > c.L3Refs {
			return false
		}
		if c.L2Refs != c.L1DMiss || c.L3Refs != c.L2Miss {
			return false
		}
		if c.Local+c.Remote != c.L3Miss {
			return false
		}
		return c.StallCycles <= c.RawLatency
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
