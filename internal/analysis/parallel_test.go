package analysis

import (
	"fmt"
	"reflect"
	"testing"

	"perfknow/internal/perfdmf"
)

// wideTrial builds a trial of many events and many threads.
func wideTrial(threads, events int) *perfdmf.Trial {
	t := perfdmf.NewTrial("app", "exp", "wide", threads)
	t.AddMetric(perfdmf.TimeMetric)
	t.AddMetric("CYCLES")
	for j := 0; j < events; j++ {
		e := t.EnsureEvent(fmt.Sprintf("event_%02d", j))
		for th := 0; th < threads; th++ {
			v := float64((th%5)*1000 + j*17 + 1)
			e.SetValue(perfdmf.TimeMetric, th, v, v*0.8)
			e.SetValue("CYCLES", th, v*1500, v*1200)
		}
	}
	return t
}

func TestDeriveMetricBatch(t *testing.T) {
	trials := []*perfdmf.Trial{wideTrial(8, 10), wideTrial(16, 10), wideTrial(32, 10)}
	out, name, err := DeriveMetricBatch(trials, "CYCLES", perfdmf.TimeMetric, OpDivide)
	if err != nil {
		t.Fatal(err)
	}
	if want := DeriveMetricName("CYCLES", perfdmf.TimeMetric, OpDivide); name != want {
		t.Fatalf("name = %q, want %q", name, want)
	}
	if len(out) != len(trials) {
		t.Fatalf("got %d trials, want %d", len(out), len(trials))
	}
	for i, d := range out {
		if d.Threads != trials[i].Threads {
			t.Fatalf("trial %d: threads %d, want %d (input order lost?)", i, d.Threads, trials[i].Threads)
		}
		if !d.HasMetric(name) {
			t.Fatalf("trial %d lacks derived metric", i)
		}
		// Input trials must be untouched (DeriveMetric clones).
		if trials[i].HasMetric(name) {
			t.Fatalf("trial %d: input mutated", i)
		}
		solo, _, err := DeriveMetric(trials[i], "CYCLES", perfdmf.TimeMetric, OpDivide)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(solo, d) {
			t.Fatalf("trial %d: batch result differs from individual DeriveMetric", i)
		}
	}
}

func TestDeriveMetricBatchErrors(t *testing.T) {
	if _, _, err := DeriveMetricBatch(nil, "A", "B", OpAdd); err == nil {
		t.Fatal("empty batch should error")
	}
	trials := []*perfdmf.Trial{wideTrial(4, 4)}
	if _, _, err := DeriveMetricBatch(trials, "NO_SUCH", perfdmf.TimeMetric, OpAdd); err == nil {
		t.Fatal("unknown metric should error")
	}
}
