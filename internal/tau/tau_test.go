package tau

import (
	"strings"
	"testing"

	"perfknow/internal/counters"
	"perfknow/internal/perfdmf"
)

func newProf(threads int) *Profiler {
	return NewProfiler(Options{Threads: threads, ClockHz: 1e6, CallpathDepth: 4})
}

// run one thread through main{ loop{ kernel } kernel } with explicit clocks.
func runNested(tp *ThreadProfile) {
	var cs counters.Set
	tp.Enter("main", 0, &cs)
	tp.Enter("loop", 10, &cs)
	cs.Inc(counters.FPOps, 100)
	tp.Enter("kernel", 20, &cs)
	cs.Inc(counters.FPOps, 50)
	tp.Leave("kernel", 50, &cs) // kernel: 30 cyc, 50 fp
	tp.Leave("loop", 60, &cs)   // loop: 50 cyc incl, 20 excl; fp 150 incl, 100 excl
	cs.Inc(counters.Loads, 7)
	tp.Enter("kernel", 70, &cs)
	tp.Leave("kernel", 100, &cs) // kernel again: 30 cyc
	tp.Leave("main", 120, &cs)   // main: 120 incl, 120-50-30=40 excl
}

func TestInclusiveExclusiveAccounting(t *testing.T) {
	p := newProf(1)
	tp := p.Thread(0)
	runNested(tp)

	if got := tp.InclusiveCycles("main"); got != 120 {
		t.Fatalf("main inclusive = %d, want 120", got)
	}
	if got := tp.ExclusiveCycles("main"); got != 40 {
		t.Fatalf("main exclusive = %d, want 40", got)
	}
	if got := tp.InclusiveCycles("loop"); got != 50 {
		t.Fatalf("loop inclusive = %d, want 50", got)
	}
	if got := tp.ExclusiveCycles("loop"); got != 20 {
		t.Fatalf("loop exclusive = %d, want 20", got)
	}
	if got := tp.InclusiveCycles("kernel"); got != 60 {
		t.Fatalf("kernel inclusive = %d, want 60", got)
	}
	if got := tp.Calls("kernel"); got != 2 {
		t.Fatalf("kernel calls = %d, want 2", got)
	}
	if got := tp.Calls("never"); got != 0 {
		t.Fatalf("unknown event calls = %d", got)
	}
}

func TestCallpathEvents(t *testing.T) {
	p := newProf(1)
	tp := p.Thread(0)
	runNested(tp)

	if got := tp.InclusiveCycles("main => loop"); got != 50 {
		t.Fatalf("callpath main=>loop inclusive = %d, want 50", got)
	}
	if got := tp.InclusiveCycles("main => loop => kernel"); got != 30 {
		t.Fatalf("deep callpath inclusive = %d, want 30", got)
	}
	if got := tp.InclusiveCycles("main => kernel"); got != 30 {
		t.Fatalf("second callpath inclusive = %d, want 30", got)
	}
}

func TestFlatOnlyWhenCallpathDisabled(t *testing.T) {
	p := NewProfiler(Options{Threads: 1, ClockHz: 1e6})
	tp := p.Thread(0)
	runNested(tp)
	if got := tp.InclusiveCycles("main => loop"); got != 0 {
		t.Fatalf("callpath recorded despite depth 0: %d", got)
	}
	if got := tp.InclusiveCycles("loop"); got != 50 {
		t.Fatalf("flat event missing: %d", got)
	}
}

func TestCounterDeltas(t *testing.T) {
	p := newProf(1)
	tp := p.Thread(0)
	runNested(tp)
	tr, err := p.Trial("app", "exp", "t1")
	if err != nil {
		t.Fatal(err)
	}
	loop := tr.Event("loop")
	if loop.Inclusive["FP_OPS_RETIRED"][0] != 150 {
		t.Fatalf("loop inclusive FP = %g, want 150", loop.Inclusive["FP_OPS_RETIRED"][0])
	}
	if loop.Exclusive["FP_OPS_RETIRED"][0] != 100 {
		t.Fatalf("loop exclusive FP = %g, want 100", loop.Exclusive["FP_OPS_RETIRED"][0])
	}
	main := tr.Event("main")
	if main.Inclusive["LOADS_RETIRED"][0] != 7 {
		t.Fatalf("main inclusive loads = %g, want 7", main.Inclusive["LOADS_RETIRED"][0])
	}
	// The loads happened between loop and the second kernel, in main's
	// exclusive region.
	if main.Exclusive["LOADS_RETIRED"][0] != 7 {
		t.Fatalf("main exclusive loads = %g, want 7", main.Exclusive["LOADS_RETIRED"][0])
	}
}

func TestTrialTimeMetric(t *testing.T) {
	p := newProf(2)
	runNested(p.Thread(0))
	var cs counters.Set
	p.Thread(1).Enter("main", 0, &cs)
	p.Thread(1).Leave("main", 1000, &cs)

	tr, err := p.Trial("app", "exp", "t1")
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// ClockHz = 1e6 → 1 cycle = 1 microsecond.
	main := tr.Event("main")
	if main.Inclusive[perfdmf.TimeMetric][0] != 120 {
		t.Fatalf("thread 0 main TIME = %g usec, want 120", main.Inclusive[perfdmf.TimeMetric][0])
	}
	if main.Inclusive[perfdmf.TimeMetric][1] != 1000 {
		t.Fatalf("thread 1 main TIME = %g usec, want 1000", main.Inclusive[perfdmf.TimeMetric][1])
	}
	// Thread 1 never ran loop/kernel: zeros, not missing data.
	if tr.Event("loop").Inclusive[perfdmf.TimeMetric][1] != 0 {
		t.Fatal("thread 1 loop TIME should be 0")
	}
	// Only counters that fired become metrics.
	if tr.HasMetric("L3_MISSES") {
		t.Fatal("L3_MISSES should not be a metric — it never fired")
	}
	if !tr.HasMetric("FP_OPS_RETIRED") || !tr.HasMetric("LOADS_RETIRED") {
		t.Fatalf("expected FP and load metrics, got %v", tr.Metrics)
	}
}

func TestAddExclusiveOverhead(t *testing.T) {
	p := newProf(1)
	tp := p.Thread(0)
	var cs counters.Set
	tp.Enter("main", 0, &cs)
	var wait counters.Set
	wait.Inc(counters.OMPBarrierCycles, 500)
	tp.AddExclusive("omp_barrier", 500, wait)
	tp.Leave("main", 1000, &cs)

	if got := tp.InclusiveCycles("omp_barrier"); got != 500 {
		t.Fatalf("barrier cycles = %d", got)
	}
	tr, err := p.Trial("a", "e", "t")
	if err != nil {
		t.Fatal(err)
	}
	b := tr.Event("omp_barrier")
	if b.Exclusive["OMP_BARRIER_CYCLES"][0] != 500 {
		t.Fatalf("barrier counter = %g", b.Exclusive["OMP_BARRIER_CYCLES"][0])
	}
	if b.Calls[0] != 0 {
		t.Fatalf("synthetic event calls = %g, want 0", b.Calls[0])
	}
}

func TestTrialRejectsOpenTimers(t *testing.T) {
	p := newProf(1)
	var cs counters.Set
	p.Thread(0).Enter("main", 0, &cs)
	if _, err := p.Trial("a", "e", "t"); err == nil {
		t.Fatal("Trial with open timers should fail")
	} else if !strings.Contains(err.Error(), "main") {
		t.Fatalf("error should name the open timer: %v", err)
	}
}

func TestMismatchedLeavePanics(t *testing.T) {
	p := newProf(1)
	tp := p.Thread(0)
	var cs counters.Set
	tp.Enter("a", 0, &cs)
	for name, f := range map[string]func(){
		"wrong event": func() { tp.Leave("b", 10, &cs) },
		"clock back":  func() { tp.Leave("a", 0, &cs); tp.Enter("c", 10, &cs); tp.Leave("c", 5, &cs) },
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
	// Empty-stack Leave also panics.
	p2 := newProf(1)
	defer func() {
		if recover() == nil {
			t.Error("empty-stack Leave: no panic")
		}
	}()
	p2.Thread(0).Leave("x", 0, &counters.Set{})
}

func TestProfilerConstructionErrors(t *testing.T) {
	for name, f := range map[string]func(){
		"zero threads": func() { NewProfiler(Options{Threads: 0, ClockHz: 1}) },
		"zero clock":   func() { NewProfiler(Options{Threads: 1}) },
		"bad thread":   func() { newProf(1).Thread(2) },
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

// Invariant: for every event and thread, exclusive <= inclusive in both
// cycles and every counter.
func TestExclusiveNeverExceedsInclusive(t *testing.T) {
	p := newProf(1)
	tp := p.Thread(0)
	runNested(tp)
	tr, err := p.Trial("a", "e", "t")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range tr.Events {
		for _, m := range tr.Metrics {
			for th := 0; th < tr.Threads; th++ {
				if e.Exclusive[m][th] > e.Inclusive[m][th] {
					t.Fatalf("event %q metric %q thread %d: excl %g > incl %g",
						e.Name, m, th, e.Exclusive[m][th], e.Inclusive[m][th])
				}
			}
		}
	}
}

// Leave's deltas saturate at zero: a counter that reads lower at Leave than
// at Enter charges the region nothing inclusive, and one whose children were
// charged more than the region's own inclusive value charges it nothing
// exclusive.
func TestLeaveSaturatesAtZero(t *testing.T) {
	p := newProf(1)
	tp := p.Thread(0)
	var cs counters.Set
	cs.Inc(counters.FPOps, 100)
	tp.Enter("outer", 0, &cs)
	tp.Enter("inner", 0, &cs)
	cs.Inc(counters.Loads, 50)
	tp.Leave("inner", 10, &cs) // inner: 50 loads
	cs = counters.Set{}
	cs.Inc(counters.FPOps, 40)
	cs.Inc(counters.Loads, 20)
	tp.Leave("outer", 20, &cs) // FP_OPS fell by 60; 20 loads inclusive beside inner's 50
	tr, err := p.Trial("a", "e", "t")
	if err != nil {
		t.Fatal(err)
	}
	if tr.HasMetric("FP_OPS_RETIRED") {
		t.Error("FP_OPS_RETIRED, which only fell, was charged")
	}
	outer := tr.Event("outer")
	for _, c := range []struct {
		row  []float64
		want float64
	}{
		{outer.Inclusive["LOADS_RETIRED"], 20},
		{outer.Exclusive["LOADS_RETIRED"], 0},
		{tr.Event("inner").Exclusive["LOADS_RETIRED"], 50},
	} {
		if c.row[0] != c.want {
			t.Errorf("got %v, want %v", c.row[0], c.want)
		}
	}
}
