package experiments

import (
	"reflect"
	"slices"
	"testing"
)

// TestRunDeterministicAcrossWorkerCounts asserts that the whole suite
// produces identical output — rows, checks, measured values — in registry
// order, whether RunAll runs the experiments one at a time on the caller
// (-j 1) or fans them out over 8 workers (-j 8). This is the repo-wide
// determinism contract: -j is a pure wall-clock choice.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full experiment suite twice")
	}
	seq, err := RunAll("", 1)
	if err != nil {
		t.Fatalf("-j 1: %v", err)
	}
	par, err := RunAll("", 8)
	if err != nil {
		t.Fatalf("-j 8: %v", err)
	}
	for name, res := range map[string][]*Result{"-j 1": seq, "-j 8": par} {
		var ids []string
		for _, r := range res {
			ids = append(ids, r.ID)
		}
		if !slices.Equal(ids, IDs()) {
			t.Fatalf("%s: results in order %v, want registry order %v", name, ids, IDs())
		}
	}
	for i := range seq {
		if !reflect.DeepEqual(seq[i], par[i]) {
			t.Errorf("%s: output differs between -j 1 and -j 8", seq[i].ID)
			diffResults(t, seq[i], par[i])
		}
	}
}

// TestRunAllMatchesIndividualRuns asserts the fan-out in RunAll returns the
// same results, in registry order, as running each experiment alone.
func TestRunAllMatchesIndividualRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a slice of the experiment suite twice")
	}
	all, err := RunAll("M", 8)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"M1", "M2", "M3"}
	if len(all) != len(want) {
		t.Fatalf("RunAll(M) returned %d results, want %d", len(all), len(want))
	}
	for i, res := range all {
		if res.ID != want[i] {
			t.Fatalf("result %d is %s, want %s (registry order)", i, res.ID, want[i])
		}
		solo, err := Run(res.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(solo, res) {
			t.Errorf("%s: RunAll result differs from individual Run", res.ID)
		}
	}
}

func diffResults(t *testing.T, a, b *Result) {
	t.Helper()
	if len(a.Lines) != len(b.Lines) {
		t.Logf("line count: %d vs %d", len(a.Lines), len(b.Lines))
	}
	for i := range a.Lines {
		if i < len(b.Lines) && a.Lines[i] != b.Lines[i] {
			t.Logf("line %d:\n  -j1: %s\n  -j8: %s", i, a.Lines[i], b.Lines[i])
		}
	}
	for i := range a.Checks {
		if i < len(b.Checks) && a.Checks[i] != b.Checks[i] {
			t.Logf("check %d: %+v vs %+v", i, a.Checks[i], b.Checks[i])
		}
	}
}
