package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"perfknow/internal/counters"
	"perfknow/internal/machine"
)

// enginePair is a memoised engine and one that prices every execution, each
// on a machine of its own; the tests drive both with the same operations.
type enginePair struct {
	memo, plain *Engine
}

func newEnginePair(threads int) enginePair {
	p := enginePair{newEngine(threads), newEngine(threads)}
	p.plain.memoOff = true
	return p
}

func (p enginePair) each(f func(e *Engine)) { f(p.memo); f(p.plain) }

// same fails the test unless every thread of the pair has the same clock and
// counters.
func (p enginePair) same(t *testing.T, when string) {
	t.Helper()
	for i := range p.memo.threads {
		a, b := p.memo.threads[i], p.plain.threads[i]
		if a.Clock != b.Clock || a.CS != b.CS {
			t.Fatalf("%s: thread %d: memoised clock %d counters %v, priced every time clock %d counters %v",
				when, i, a.Clock, a.CS, b.Clock, b.CS)
		}
	}
}

// kernelSpec is a kernel whose references name regions by position, so that
// it can be built over either machine of a pair.
type kernelSpec struct {
	k      Kernel
	region [2]int // index+1 into the regions, 0 = none
}

func (s kernelSpec) on(regions []*machine.Region) Kernel {
	k := s.k
	for i, r := range s.region {
		if r > 0 {
			k.Refs[i].Region = regions[r-1]
		}
	}
	return k
}

func randomSpec(rng *rand.Rand, sizes []int64) kernelSpec {
	s := kernelSpec{k: Kernel{
		FPOps:          uint64(rng.Intn(4) * 5000),
		IntOps:         uint64(rng.Intn(4) * 3000),
		Branches:       uint64(rng.Intn(3) * 400),
		MispredictRate: float64(rng.Intn(3)) * 0.03,
		ILP:            float64(rng.Intn(4)) * 0.3,
		FPStallPerOp:   float64(rng.Intn(2)) * 0.4,
		RegDepFrac:     float64(rng.Intn(2)) * 0.05,
		IssuedOverhead: float64(rng.Intn(2)) * 0.1,
	}}
	for i := range s.k.Refs {
		ref := &s.k.Refs[i]
		ref.Loads = uint64(rng.Intn(3) * 2000)
		ref.Stores = uint64(rng.Intn(3) * 1000)
		if rng.Intn(3) == 0 {
			continue // a synthetic reference
		}
		r := rng.Intn(len(sizes))
		s.region[i] = r + 1
		ref.Off = rng.Int63n(sizes[r])
		ref.Len = 1 + rng.Int63n(sizes[r]-ref.Off)
		ref.Stride = int64(rng.Intn(3)) * 64
		ref.Reuse = float64(rng.Intn(3)) * 3.5
		ref.FirstTouch = rng.Intn(2) == 0
		ref.Contenders = rng.Intn(6)
		ref.Hot = float64(rng.Intn(3)) * 0.5
	}
	return s
}

// Random kernels from a small pool — so they repeat — over regions that
// start unplaced and fill up by first touch, with Touch, Place and a region
// re-allocated under its name in between: after every step the memoised
// engine has charged each thread exactly what pricing every execution
// charges.
func TestMemoMatchesPricingEveryExecution(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := newEnginePair(1 + rng.Intn(16))
		page := p.memo.cfg.PageBytes
		sizes := make([]int64, 1+rng.Intn(3))
		regions := map[*Engine][]*machine.Region{}
		for i := range sizes {
			sizes[i] = page * int64(1+rng.Intn(12))
			p.each(func(e *Engine) {
				regions[e] = append(regions[e], e.mach.AllocRegion(string(rune('a'+i)), sizes[i]))
			})
		}
		pool := make([]kernelSpec, 2+rng.Intn(30))
		for i := range pool {
			pool[i] = randomSpec(rng, sizes)
		}
		for step := 0; step < 1500; step++ {
			th := rng.Intn(len(p.memo.threads))
			r := rng.Intn(len(sizes))
			off := rng.Int63n(sizes[r])
			length := 1 + rng.Int63n(sizes[r]-off)
			node := rng.Intn(p.memo.cfg.Nodes)
			switch op := rng.Intn(100); {
			case op < 80:
				s := pool[rng.Intn(len(pool))]
				p.each(func(e *Engine) { e.threads[th].Compute(s.on(regions[e])) })
			case op < 88:
				src, srcHot, dstHot := rng.Intn(len(sizes)), float64(rng.Intn(2)), float64(rng.Intn(2))
				n := 1 + rng.Int63n(min(length, sizes[src]))
				p.each(func(e *Engine) {
					e.threads[th].CopyHot(regions[e][r], regions[e][src], off, 0, n, srcHot, dstHot)
				})
			case op < 94:
				p.each(func(e *Engine) { regions[e][r].Touch(off, length, node) })
			case op < 99:
				p.each(func(e *Engine) { regions[e][r].Place(off, length, node) })
			default:
				p.each(func(e *Engine) { regions[e][r] = e.mach.AllocRegion(string(rune('a'+r)), sizes[r]) })
			}
			p.same(t, fmt.Sprintf("seed %d step %d", seed, step))
		}
		if p.memo.priced >= p.plain.priced {
			t.Errorf("seed %d: the memoised engine priced %d kernels, pricing every execution %d: nothing was found again",
				seed, p.memo.priced, p.plain.priced)
		}
	}
}

// placedKernel is a memory-bound kernel over all of a region homed on node.
func placedKernel(e *Engine, name string, node int) Kernel {
	r := e.mach.AllocRegion(name, 64*e.cfg.PageBytes)
	r.Place(0, r.Bytes, node)
	return Kernel{IntOps: 1000, Refs: [2]MemRef{{Region: r, Len: r.Bytes, Loads: 200000}}}
}

// A Place between two executions of one kernel changes what the second is
// charged, and a region allocated again under its name is a different region:
// a kernel over it is not charged what the kernel over the old one was.
func TestMemoFollowsPlacement(t *testing.T) {
	p := newEnginePair(1)
	ks := map[*Engine]Kernel{}
	p.each(func(e *Engine) { ks[e] = placedKernel(e, "field", 0) })
	run := func(when string) uint64 {
		before := p.memo.Master().Clock
		p.each(func(e *Engine) { e.Master().Compute(ks[e]) })
		p.same(t, when)
		return p.memo.Master().Clock - before
	}
	local := run("local")
	if again := run("local again"); again != local || p.memo.priced != 1 {
		t.Fatalf("second local execution cost %d after %d, %d kernels priced", again, local, p.memo.priced)
	}

	p.each(func(e *Engine) { ks[e].Refs[0].Region.Place(0, e.cfg.PageBytes*64, 5) })
	remote := run("after Place")
	if remote <= local {
		t.Errorf("execution after Place to a remote node cost %d, local %d", remote, local)
	}
	if p.memo.Master().CS.Get(counters.RemoteMem) == 0 {
		t.Error("no remote access counted after Place to a remote node")
	}
	if again := run("remote again"); again != remote || p.memo.priced != 2 {
		t.Errorf("second remote execution cost %d after %d, %d kernels priced", again, remote, p.memo.priced)
	}

	// Same name, same size, same kernel fields: only the region differs.
	p.each(func(e *Engine) { ks[e] = placedKernel(e, "field", 0) })
	if fresh := run("re-allocated"); fresh != local {
		t.Errorf("kernel over the re-allocated region cost %d, want the local %d (remote was %d)", fresh, local, remote)
	}
}

func TestMemoHitAllocatesNothing(t *testing.T) {
	e := newEngine(2)
	k := placedKernel(e, "field", 0)
	th := e.Thread(1)
	th.Compute(k)
	th.CopyHot(k.Refs[0].Region, k.Refs[0].Region, 0, 4096, 2048, 0, 1)
	priced := e.priced
	if n := testing.AllocsPerRun(100, func() {
		th.Compute(k)
		th.CopyHot(k.Refs[0].Region, k.Refs[0].Region, 0, 4096, 2048, 0, 1)
	}); n != 0 {
		t.Errorf("a found charge allocated %v times", n)
	}
	if e.priced != priced {
		t.Errorf("%d kernels priced by executions that should all have been found", e.priced-priced)
	}
}

// More live kernels than the memo keeps: it starts over instead of growing,
// and still charges what pricing does.
func TestMemoStartsOverWhenFull(t *testing.T) {
	p := newEnginePair(1)
	for round := 0; round < 3; round++ {
		for i := 0; i < memoEntries+memoEntries/4; i++ {
			p.each(func(e *Engine) {
				e.Master().Compute(Kernel{IntOps: uint64(1000 + i)})
				e.Master().Compute(Kernel{IntOps: uint64(1000 + i)}) // found: keeps every new kernel kept
			})
		}
		p.same(t, "round")
	}
	if p.memo.memo.n > memoEntries {
		t.Errorf("%d charges kept, bound %d", p.memo.memo.n, memoEntries)
	}
}

// A program that never repeats a kernel stops paying for keeping them; one
// that starts repeating late is kept in full again within two rounds.
func TestMemoSamplesWhileNothingRepeats(t *testing.T) {
	p := newEnginePair(1)
	const distinct = 800
	round := func() {
		for i := 0; i < distinct; i++ {
			p.each(func(e *Engine) { e.Master().Compute(Kernel{FPOps: uint64(500 + i)}) })
		}
		p.same(t, "round")
	}
	round()
	if want := memoDry + (distinct-memoDry)/memoSample; p.memo.memo.n != want {
		t.Errorf("%d of %d all-different kernels kept, want %d", p.memo.memo.n, distinct, want)
	}
	round()
	before := p.memo.priced
	round()
	if p.memo.priced != before {
		t.Errorf("third round priced %d kernels, want all %d found", p.memo.priced-before, distinct)
	}
}
