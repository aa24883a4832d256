package analysis

import (
	"math"
	"testing"

	"perfknow/internal/perfdmf"
)

// trial builds: 4 threads, metrics TIME and STALLS/CYCLES, main enclosing
// inner/outer with anti-correlated times (the MSA pattern).
func trial() *perfdmf.Trial {
	t := perfdmf.NewTrial("app", "exp", "t16", 4)
	t.AddMetric("TIME")
	t.AddMetric("BACK_END_BUBBLE_ALL")
	t.AddMetric("CPU_CYCLES")

	main := t.EnsureEvent("main")
	inner := t.EnsureEvent("inner")
	outer := t.EnsureEvent("outer")
	cp1 := t.EnsureEvent("main => outer")
	cp2 := t.EnsureEvent("main => outer => inner")
	for th := 0; th < 4; th++ {
		f := float64(th + 1)
		main.Calls[th] = 1
		main.SetValue("TIME", th, 1000, 50)
		main.SetValue("BACK_END_BUBBLE_ALL", th, 500, 10)
		main.SetValue("CPU_CYCLES", th, 2000, 100)
		inner.Calls[th] = 5
		inner.SetValue("TIME", th, 200*f, 200*f) // 200,400,600,800
		inner.SetValue("BACK_END_BUBBLE_ALL", th, 100*f, 100*f)
		inner.SetValue("CPU_CYCLES", th, 400*f, 400*f)
		outer.Calls[th] = 5
		outer.SetValue("TIME", th, 950, 950-200*f) // excl 750,550,350,150 — anti-correlated
		outer.SetValue("BACK_END_BUBBLE_ALL", th, 200, 10)
		outer.SetValue("CPU_CYCLES", th, 1900, 100)
		cp1.SetValue("TIME", th, 950, 950-200*f)
		cp2.SetValue("TIME", th, 200*f, 200*f)
	}
	return t
}

func TestDeriveMetric(t *testing.T) {
	tr := trial()
	out, name, err := DeriveMetric(tr, "BACK_END_BUBBLE_ALL", "CPU_CYCLES", OpDivide)
	if err != nil {
		t.Fatal(err)
	}
	if name != "(BACK_END_BUBBLE_ALL / CPU_CYCLES)" {
		t.Fatalf("derived name = %q", name)
	}
	if !out.HasMetric(name) {
		t.Fatal("derived metric missing")
	}
	// inner thread 0: 100/400 = 0.25 both ways.
	got := out.Event("inner").Inclusive[name][0]
	if math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("derived value = %g, want 0.25", got)
	}
	// Original untouched.
	if tr.HasMetric(name) {
		t.Fatal("DeriveMetric mutated its input")
	}
	// Unknown metrics error.
	if _, _, err := DeriveMetric(tr, "NOPE", "CPU_CYCLES", OpDivide); err == nil {
		t.Fatal("unknown lhs accepted")
	}
	if _, _, err := DeriveMetric(tr, "CPU_CYCLES", "NOPE", OpDivide); err == nil {
		t.Fatal("unknown rhs accepted")
	}
}

func TestDeriveMetricDivideByZero(t *testing.T) {
	tr := perfdmf.NewTrial("a", "e", "t", 1)
	tr.AddMetric("A")
	tr.AddMetric("B")
	e := tr.EnsureEvent("x")
	e.SetValue("A", 0, 5, 5)
	e.SetValue("B", 0, 0, 0)
	out, name, err := DeriveMetric(tr, "A", "B", OpDivide)
	if err != nil {
		t.Fatal(err)
	}
	if v := out.Event("x").Inclusive[name][0]; v != 0 {
		t.Fatalf("divide by zero = %g, want 0", v)
	}
}

func TestOpsAndParse(t *testing.T) {
	for s, want := range map[string]Op{"+": OpAdd, "-": OpSubtract, "*": OpMultiply, "/": OpDivide} {
		got, err := ParseOp(s)
		if err != nil || got != want {
			t.Fatalf("ParseOp(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Fatalf("Op.String() = %q, want %q", got.String(), s)
		}
	}
	if _, err := ParseOp("%"); err == nil {
		t.Fatal("bad op accepted")
	}
	if got := OpAdd.apply(2, 3); got != 5 {
		t.Fatalf("apply + = %g", got)
	}
	if got := OpSubtract.apply(2, 3); got != -1 {
		t.Fatalf("apply - = %g", got)
	}
	if got := OpMultiply.apply(2, 3); got != 6 {
		t.Fatalf("apply * = %g", got)
	}
}

func TestDeriveScaledAndSum(t *testing.T) {
	tr := trial()
	out, name, err := DeriveScaled(tr, "TIME", 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Event("inner").Exclusive[name][1]; got != 800 {
		t.Fatalf("scaled = %g, want 800", got)
	}
	if _, _, err := DeriveScaled(tr, "NOPE", 2); err == nil {
		t.Fatal("unknown metric accepted")
	}

	out2, sname, err := DeriveSum(tr, []string{"TIME", "CPU_CYCLES"})
	if err != nil {
		t.Fatal(err)
	}
	if got := out2.Event("inner").Inclusive[sname][0]; got != 600 {
		t.Fatalf("sum = %g, want 600", got)
	}
	if _, _, err := DeriveSum(tr, nil); err == nil {
		t.Fatal("empty sum accepted")
	}
	if _, _, err := DeriveSum(tr, []string{"NOPE"}); err == nil {
		t.Fatal("unknown sum metric accepted")
	}
}

func TestReduce(t *testing.T) {
	tr := trial()
	mean := Reduce(tr, ReduceMean)
	if mean.Threads != 1 {
		t.Fatal("reduced trial should have one thread")
	}
	// inner mean inclusive TIME = (200+400+600+800)/4 = 500.
	if got := mean.Event("inner").Inclusive["TIME"][0]; got != 500 {
		t.Fatalf("mean = %g, want 500", got)
	}
	total := Reduce(tr, ReduceTotal)
	if got := total.Event("inner").Inclusive["TIME"][0]; got != 2000 {
		t.Fatalf("total = %g, want 2000", got)
	}
	max := Reduce(tr, ReduceMax)
	if got := max.Event("inner").Inclusive["TIME"][0]; got != 800 {
		t.Fatalf("max = %g, want 800", got)
	}
	min := Reduce(tr, ReduceMin)
	if got := min.Event("inner").Inclusive["TIME"][0]; got != 200 {
		t.Fatalf("min = %g, want 200", got)
	}
	sd := Reduce(tr, ReduceStdDev)
	if got := sd.Event("inner").Inclusive["TIME"][0]; math.Abs(got-math.Sqrt(50000)) > 1e-9 {
		t.Fatalf("stddev = %g", got)
	}
	if mean.Metadata["reduction"] != "mean" {
		t.Fatal("reduction metadata missing")
	}
}

func TestExtractEventsAndTopN(t *testing.T) {
	tr := trial()
	sub := ExtractEvents(tr, []string{"inner", "outer"})
	if len(sub.Events) != 2 {
		t.Fatalf("extract kept %d events", len(sub.Events))
	}
	if sub.Event("main") != nil {
		t.Fatal("main should be gone")
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}

	top := TopN(tr, "TIME", 2)
	// Mean exclusive TIME: inner 500, outer 450, main 50.
	if len(top) != 2 || top[0] != "inner" || top[1] != "outer" {
		t.Fatalf("TopN = %v", top)
	}
	if got := TopN(tr, "TIME", 99); len(got) != 3 {
		t.Fatalf("TopN overflow = %v", got)
	}
	if got := TopN(tr, "TIME", -1); len(got) != 0 {
		t.Fatalf("TopN(-1) = %v", got)
	}
}

func TestStatsAndLoadBalance(t *testing.T) {
	tr := trial()
	stats := ExclusiveStats(tr, "TIME")
	if stats[0].Event != "inner" {
		t.Fatalf("top stat = %q", stats[0].Event)
	}
	var innerStat EventStat
	for _, s := range stats {
		if s.Event == "inner" {
			innerStat = s
		}
	}
	if innerStat.Mean != 500 || innerStat.Min != 200 || innerStat.Max != 800 || innerStat.Total != 2000 {
		t.Fatalf("inner stat = %+v", innerStat)
	}
	inc := InclusiveStats(tr, "TIME")
	found := false
	for _, s := range inc {
		if s.Event == "main" && s.Mean == 1000 {
			found = true
		}
	}
	if !found {
		t.Fatal("inclusive stats missing main")
	}

	lbs := LoadBalanceAnalysis(tr, "TIME")
	byName := map[string]LoadBalance{}
	for _, lb := range lbs {
		byName[lb.Event] = lb
	}
	inner := byName["inner"]
	// stddev/mean for 200..800 ≈ 223.6/500 ≈ 0.447 — above the 0.25 rule threshold.
	if inner.Ratio < 0.25 {
		t.Fatalf("inner imbalance ratio = %g, expected > 0.25", inner.Ratio)
	}
	// fraction of total: 500/1000.
	if math.Abs(inner.FractionOfTotal-0.5) > 1e-12 {
		t.Fatalf("inner fraction = %g", inner.FractionOfTotal)
	}
	// main itself is balanced.
	if byName["main"].Ratio != 0 {
		t.Fatalf("main ratio = %g", byName["main"].Ratio)
	}
}

func TestEventCorrelationAndNesting(t *testing.T) {
	tr := trial()
	c, err := EventCorrelation(tr, "TIME", "inner", "outer")
	if err != nil {
		t.Fatal(err)
	}
	if c > -0.99 {
		t.Fatalf("inner/outer correlation = %g, want strongly negative", c)
	}
	if _, err := EventCorrelation(tr, "TIME", "ghost", "outer"); err == nil {
		t.Fatal("unknown event accepted")
	}
	if _, err := EventCorrelation(tr, "TIME", "inner", "ghost"); err == nil {
		t.Fatal("unknown event accepted")
	}

	if !IsNested(tr, "outer", "inner") {
		t.Fatal("outer=>inner nesting not detected")
	}
	if !IsNested(tr, "main", "inner") {
		t.Fatal("transitive nesting not detected")
	}
	if IsNested(tr, "inner", "outer") {
		t.Fatal("reverse nesting wrongly detected")
	}
	if IsNested(tr, "inner", "ghost") {
		t.Fatal("ghost nesting wrongly detected")
	}
}

func TestMetricCorrelation(t *testing.T) {
	tr := trial()
	// TIME and CPU_CYCLES broadly track each other in the fixture.
	c, err := MetricCorrelation(tr, "TIME", "CPU_CYCLES")
	if err != nil {
		t.Fatal(err)
	}
	if c < 0.5 {
		t.Fatalf("correlation = %g, want clearly positive", c)
	}
	// A metric derived as a scalar multiple correlates perfectly.
	scaled, name, err := DeriveScaled(tr, "TIME", 3)
	if err != nil {
		t.Fatal(err)
	}
	perfect, err := MetricCorrelation(scaled, "TIME", name)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(perfect-1) > 1e-9 {
		t.Fatalf("scaled correlation = %g, want 1", perfect)
	}
	if _, err := MetricCorrelation(tr, "TIME", "NOPE"); err == nil {
		t.Fatal("unknown metric accepted")
	}
	if _, err := MetricCorrelation(tr, "NOPE", "TIME"); err == nil {
		t.Fatal("unknown metric accepted")
	}
}

func TestScalingSeries(t *testing.T) {
	mk := func(threads int, timePerThread float64) *perfdmf.Trial {
		tr := perfdmf.NewTrial("a", "scaling", "t", threads)
		tr.AddMetric("TIME")
		tr.Metadata["threads"] = itoa(threads)
		m := tr.EnsureEvent("main")
		for th := 0; th < threads; th++ {
			m.SetValue("TIME", th, timePerThread, timePerThread)
		}
		return tr
	}
	// Perfect scaling: time halves as threads double.
	trials := []*perfdmf.Trial{mk(4, 250), mk(1, 1000), mk(2, 500)}
	pts, err := ScalingSeries(trials, "TIME")
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Threads != 1 || pts[2].Threads != 4 {
		t.Fatal("series not sorted by threads")
	}
	if math.Abs(pts[2].Speedup-4) > 1e-12 || math.Abs(pts[2].Efficiency-1) > 1e-12 {
		t.Fatalf("speedup=%g eff=%g", pts[2].Speedup, pts[2].Efficiency)
	}
	if _, err := ScalingSeries(nil, "TIME"); err == nil {
		t.Fatal("empty series accepted")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	digits := ""
	for n > 0 {
		digits = string(rune('0'+n%10)) + digits
		n /= 10
	}
	return digits
}

func TestPerEventSpeedup(t *testing.T) {
	base := perfdmf.NewTrial("a", "e", "1", 1)
	base.AddMetric("TIME")
	base.EnsureEvent("f").SetValue("TIME", 0, 100, 100)
	base.EnsureEvent("g").SetValue("TIME", 0, 100, 100)
	other := perfdmf.NewTrial("a", "e", "4", 4)
	other.AddMetric("TIME")
	for th := 0; th < 4; th++ {
		other.EnsureEvent("f").SetValue("TIME", th, 25, 25)   // scales 4x
		other.EnsureEvent("g").SetValue("TIME", th, 100, 100) // flat
	}
	sp := PerEventSpeedup(base, other, "TIME")
	if math.Abs(sp["f"]-4) > 1e-12 {
		t.Fatalf("f speedup = %g", sp["f"])
	}
	if math.Abs(sp["g"]-1) > 1e-12 {
		t.Fatalf("g speedup = %g", sp["g"])
	}
}

func TestLinearRegression(t *testing.T) {
	slope, icept, r2, err := LinearRegression([]float64{1, 2, 3, 4}, []float64{3, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(slope-2) > 1e-12 || math.Abs(icept-1) > 1e-12 || math.Abs(r2-1) > 1e-12 {
		t.Fatalf("fit = %g x + %g, r2=%g", slope, icept, r2)
	}
	if _, _, _, err := LinearRegression([]float64{1}, []float64{1}); err == nil {
		t.Fatal("short input accepted")
	}
	if _, _, _, err := LinearRegression([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Fatal("constant x accepted")
	}
	// Constant y: perfect horizontal fit.
	_, _, r2, err = LinearRegression([]float64{1, 2, 3}, []float64{5, 5, 5})
	if err != nil || r2 != 1 {
		t.Fatalf("constant y: r2=%g err=%v", r2, err)
	}
}

func TestKMeansSeparatesMasterFromWorkers(t *testing.T) {
	// 8 threads: thread 0 does exchange work, others compute — two clusters.
	tr := perfdmf.NewTrial("a", "e", "t", 8)
	tr.AddMetric("TIME")
	ex := tr.EnsureEvent("exchange")
	cp := tr.EnsureEvent("compute")
	for th := 0; th < 8; th++ {
		if th == 0 {
			ex.SetValue("TIME", th, 1000, 1000)
			cp.SetValue("TIME", th, 10, 10)
		} else {
			ex.SetValue("TIME", th, 5, 5)
			cp.SetValue("TIME", th, 900+float64(th), 900+float64(th))
		}
	}
	cl, err := KMeans(tr, "TIME", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Sizes[cl.Assignment[0]] != 1 {
		t.Fatalf("master not isolated: sizes=%v assign=%v", cl.Sizes, cl.Assignment)
	}
	for th := 1; th < 8; th++ {
		if cl.Assignment[th] == cl.Assignment[0] {
			t.Fatalf("worker %d clustered with master", th)
		}
	}
	if cl.Inertia < 0 {
		t.Fatal("negative inertia")
	}
}

func TestKMeansValidation(t *testing.T) {
	tr := trial()
	if _, err := KMeans(tr, "TIME", 0, 10); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := KMeans(tr, "TIME", 99, 10); err == nil {
		t.Fatal("k>threads accepted")
	}
	if _, err := KMeans(tr, "NO_METRIC", 2, 10); err == nil {
		t.Fatal("unknown metric accepted")
	}
	// k == threads degenerates to one thread per cluster.
	cl, err := KMeans(tr, "TIME", 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range cl.Sizes {
		if s != 1 {
			t.Fatalf("sizes = %v", cl.Sizes)
		}
	}
}
