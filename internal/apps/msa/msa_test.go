package msa

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"perfknow/internal/analysis"
	"perfknow/internal/machine"
	"perfknow/internal/perfdmf"
	"perfknow/internal/sim"
)

func TestAlignKnownCases(t *testing.T) {
	p := DefaultScore()
	// Identical sequences: score = len * match.
	s, cells := Align([]byte("ACDEFG"), []byte("ACDEFG"), p)
	if s != 12 {
		t.Fatalf("self alignment score = %d, want 12", s)
	}
	if cells != 36 {
		t.Fatalf("cells = %d, want 36", cells)
	}
	// Disjoint alphabets: local alignment floors at 0.
	s, _ = Align([]byte("AAAA"), []byte("CCCC"), p)
	if s != 0 {
		t.Fatalf("disjoint score = %d, want 0", s)
	}
	// A shared substring dominates.
	s, _ = Align([]byte("XXXACDEYYY"), []byte("ZZACDEWW"), p)
	if s < 8 {
		t.Fatalf("substring score = %d, want >= 8", s)
	}
	// Empty input.
	s, cells = Align(nil, []byte("A"), p)
	if s != 0 || cells != 0 {
		t.Fatal("empty input should score 0 over 0 cells")
	}
}

func TestAlignSymmetry(t *testing.T) {
	p := DefaultScore()
	seqs := GenerateSequences(6, 40, 15, 7)
	for i := 0; i < len(seqs); i++ {
		for j := i + 1; j < len(seqs); j++ {
			sij, _ := Align(seqs[i], seqs[j], p)
			sji, _ := Align(seqs[j], seqs[i], p)
			if sij != sji {
				t.Fatalf("alignment not symmetric for pair (%d,%d): %d vs %d", i, j, sij, sji)
			}
		}
	}
}

func TestDistanceProperties(t *testing.T) {
	p := DefaultScore()
	a := []byte("ACDEFGHIKL")
	if d := Distance(a, a, p); d != 0 {
		t.Fatalf("self distance = %g, want 0", d)
	}
	if d := Distance([]byte("AAAA"), []byte("CCCC"), p); d != 1 {
		t.Fatalf("disjoint distance = %g, want 1", d)
	}
	if d := Distance(nil, a, p); d != 1 {
		t.Fatalf("empty distance = %g", d)
	}
	f := func(seedA, seedB int64) bool {
		x := GenerateSequences(1, 30, 10, seedA)[0]
		y := GenerateSequences(1, 30, 10, seedB)[0]
		d := Distance(x, y, p)
		return d >= 0 && d <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateSequencesDeterministic(t *testing.T) {
	a := GenerateSequences(10, 100, 30, 5)
	b := GenerateSequences(10, 100, 30, 5)
	if len(a) != 10 {
		t.Fatalf("got %d sequences", len(a))
	}
	for i := range a {
		if string(a[i]) != string(b[i]) {
			t.Fatal("generation not deterministic")
		}
		if len(a[i]) < 70 || len(a[i]) > 130 {
			t.Fatalf("length %d outside jitter band", len(a[i]))
		}
	}
	c := GenerateSequences(10, 100, 30, 6)
	same := true
	for i := range a {
		if string(a[i]) != string(c[i]) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical sequences")
	}
	// Zero jitter: exact lengths; tiny mean floors at 1.
	d := GenerateSequences(3, 5, 0, 1)
	for _, s := range d {
		if len(s) != 5 {
			t.Fatalf("zero jitter length %d", len(s))
		}
	}
	e := GenerateSequences(1, 1, 5, 1)
	if len(e[0]) < 1 {
		t.Fatal("length floor violated")
	}
}

// sequenceLengths is what Run charges by: it has to be the lengths of the
// sequences GenerateSequences builds, with no jitter, with a jitter wider than
// the mean (lengths floored at 1) and at the problem size of the figures.
func TestSequenceLengthsMatchGenerateSequences(t *testing.T) {
	def := DefaultParams(1, sim.Schedule{})
	for seed := int64(1); seed <= 5; seed++ {
		for _, c := range []struct{ n, mean, jitter int }{
			{40, 30, 0},
			{200, 6, 25},
			{def.Sequences, def.MeanLen, def.LenJitter},
		} {
			seqs := GenerateSequences(c.n, c.mean, c.jitter, seed)
			lengths := sequenceLengths(c.n, c.mean, c.jitter, seed)
			if len(lengths) != len(seqs) {
				t.Fatalf("seed %d %+v: %d lengths for %d sequences", seed, c, len(lengths), len(seqs))
			}
			floored := 0
			for i, s := range seqs {
				if lengths[i] != int64(len(s)) {
					t.Fatalf("seed %d %+v: sequence %d has length %d, sequenceLengths says %d", seed, c, i, len(s), lengths[i])
				}
				if len(s) == 1 {
					floored++
				}
			}
			if c.jitter > c.mean && floored < 2 {
				t.Errorf("seed %d %+v: %d sequences floored at length 1, the case is not exercised", seed, c, floored)
			}
		}
	}
}

// scriptedSource hands out Int63 values from a list and counts them.
type scriptedSource struct {
	vals  []int64
	drawn int
}

func (s *scriptedSource) Seed(int64) {}
func (s *scriptedSource) Int63() int64 {
	v := s.vals[s.drawn%len(s.vals)]
	s.drawn++
	return v
}

// skipResidue consumes what Intn(len(alphabet)) consumes, also around the
// values Intn rejects — which a seeded generator yields about four times in
// a billion draws, so the seeds above never get there.
func TestSkipResidueDrawsWhatIntnDraws(t *testing.T) {
	int31 := func(v int32) int64 { return int64(v) << 32 }
	script := []int64{
		int31(0), int31(residueMax), int31(residueMax + 1), int31(7),
		int31(1<<31 - 1), int31(1<<31 - 1), int31(residueMax + 1), int31(residueMax - 1),
		int31(residueMax + 2), int31(19), int31(20),
	}
	a, b := &scriptedSource{vals: script}, &scriptedSource{vals: script}
	ra, rb := rand.New(a), rand.New(b)
	for i := 0; i < 3*len(script); i++ {
		ra.Intn(len(alphabet))
		skipResidue(rb)
		if a.drawn != b.drawn {
			t.Fatalf("call %d: Intn has drawn %d values, skipResidue %d", i, a.drawn, b.drawn)
		}
	}
	if a.drawn <= 3*len(script) {
		t.Fatalf("%d draws in %d calls: no value was rejected", a.drawn, 3*len(script))
	}
}

func smallParams(threads int, sched sim.Schedule) Params {
	return Params{Sequences: 64, MeanLen: 120, LenJitter: 60, Seed: 42, Threads: threads, Schedule: sched}
}

func TestRunProducesValidTrial(t *testing.T) {
	tr, err := Run(machine.Altix(8, 2), smallParams(8, sim.Schedule{Kind: sim.DynamicSched, Chunk: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, ev := range []string{EventMain, EventOuter, EventInner, EventTree, EventProgress} {
		if tr.Event(ev) == nil {
			t.Fatalf("missing event %q", ev)
		}
	}
	// Inner loop runs on all threads under dynamic scheduling.
	inner := tr.Event(EventInner)
	for th := 0; th < 8; th++ {
		if inner.Inclusive[perfdmf.TimeMetric][th] <= 0 {
			t.Fatalf("thread %d idle in stage 1", th)
		}
	}
	// Stage 1 dominates the profile (the paper's ~90%-in-stage-1
	// observation).
	mainT := perfdmf.Mean(tr.Event(EventMain).Inclusive[perfdmf.TimeMetric])
	outerT := perfdmf.Mean(tr.Event(EventOuter).Inclusive[perfdmf.TimeMetric])
	if outerT/mainT < 0.85 {
		t.Fatalf("stage 1 fraction = %g, want > 0.85", outerT/mainT)
	}
	if tr.Metadata["schedule"] != "dynamic,1" {
		t.Fatalf("metadata: %v", tr.Metadata)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(machine.Altix(2, 2), Params{Sequences: 1, Threads: 1}); err == nil {
		t.Fatal("1 sequence accepted")
	}
	if _, err := Run(machine.Altix(2, 2), Params{Sequences: 10, Threads: 0}); err == nil {
		t.Fatal("0 threads accepted")
	}
}

func TestStaticScheduleImbalancedDynamicBalanced(t *testing.T) {
	cfg := machine.Altix(8, 2)
	static, err := Run(cfg, smallParams(16, sim.Schedule{Kind: sim.StaticSched}))
	if err != nil {
		t.Fatal(err)
	}
	dynamic, err := Run(cfg, smallParams(16, sim.Schedule{Kind: sim.DynamicSched, Chunk: 1}))
	if err != nil {
		t.Fatal(err)
	}

	ratio := func(tr *perfdmf.Trial) float64 {
		vals := tr.Event(EventInner).Exclusive[perfdmf.TimeMetric]
		return perfdmf.StdDev(vals) / perfdmf.Mean(vals)
	}
	rs, rd := ratio(static), ratio(dynamic)
	// The paper's rule threshold: static-even exceeds 0.25, dynamic,1 does not.
	if rs < 0.25 {
		t.Fatalf("static imbalance ratio = %g, want > 0.25", rs)
	}
	if rd > 0.25 {
		t.Fatalf("dynamic,1 imbalance ratio = %g, want < 0.25", rd)
	}
	// And dynamic is faster end to end.
	if mainTime(dynamic) >= mainTime(static) {
		t.Fatalf("dynamic (%g) not faster than static (%g)", mainTime(dynamic), mainTime(static))
	}
}

func TestInnerOuterAnticorrelation(t *testing.T) {
	// Under static scheduling, threads that spend less time in the inner
	// loop wait longer in the outer loop at the barrier: strong negative
	// correlation — the fourth condition of the load-imbalance rule.
	tr, err := Run(machine.Altix(8, 2), smallParams(16, sim.Schedule{Kind: sim.StaticSched}))
	if err != nil {
		t.Fatal(err)
	}
	inner := tr.Event(EventInner).Exclusive[perfdmf.TimeMetric]
	outer := tr.Event(EventOuter).Exclusive[perfdmf.TimeMetric]
	c := perfdmf.Correlation(inner, outer)
	if c > -0.9 {
		t.Fatalf("inner/outer correlation = %g, want < -0.9", c)
	}
	// Nesting is recorded via callpaths.
	if !analysis.IsNested(tr, EventOuter, EventInner) {
		t.Fatal("callpath nesting outer => inner not recorded")
	}
}

func TestEfficiencySweepShape(t *testing.T) {
	cfg := machine.Altix(8, 2)
	base := smallParams(0, sim.Schedule{Kind: sim.DynamicSched, Chunk: 1})
	eff, err := EfficiencySweep(cfg, base, []int{4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if eff[4] < 0.8 || eff[4] > 1.05 {
		t.Fatalf("4-thread dynamic efficiency = %g", eff[4])
	}
	if eff[16] > eff[4]+0.02 {
		t.Fatalf("efficiency should not rise with threads: %v", eff)
	}

	baseStatic := smallParams(0, sim.Schedule{Kind: sim.StaticSched})
	effS, err := EfficiencySweep(cfg, baseStatic, []int{16})
	if err != nil {
		t.Fatal(err)
	}
	if effS[16] >= eff[16] {
		t.Fatalf("static (%g) should be less efficient than dynamic,1 (%g)", effS[16], eff[16])
	}
}

func TestChunkOneBeatsLargeChunks(t *testing.T) {
	// "small chunk sizes gave the best speedup. Larger chunk sizes tend to
	// change the scheduling behavior to be more like the static even
	// behavior."
	cfg := machine.Altix(8, 2)
	times := map[int]float64{}
	for _, chunk := range []int{1, 16} {
		tr, err := Run(cfg, smallParams(16, sim.Schedule{Kind: sim.DynamicSched, Chunk: chunk}))
		if err != nil {
			t.Fatal(err)
		}
		times[chunk] = mainTime(tr)
	}
	if times[1] >= times[16] {
		t.Fatalf("chunk 1 (%g) should beat chunk 16 (%g)", times[1], times[16])
	}
}

func TestCellCountMatchesModel(t *testing.T) {
	// The cost model charges lengths[i] * suffixLen[i+1] cells for outer
	// iteration i; the real kernel computes exactly len(a)*len(b) cells per
	// pair. Verify the totals agree on a small instance.
	seqs := GenerateSequences(8, 30, 10, 42)
	var realCells int
	for i := 0; i < len(seqs); i++ {
		for j := i + 1; j < len(seqs); j++ {
			_, c := Align(seqs[i], seqs[j], DefaultScore())
			realCells += c
		}
	}
	var modelCells int64
	suffix := int64(0)
	for i := len(seqs) - 1; i >= 0; i-- {
		modelCells += int64(len(seqs[i])) * suffix
		suffix += int64(len(seqs[i]))
	}
	if int64(realCells) != modelCells {
		t.Fatalf("real cells %d != model cells %d", realCells, modelCells)
	}
	if math.Abs(float64(realCells)) == 0 {
		t.Fatal("no cells computed")
	}
}
