package experiments

import (
	"strings"
	"testing"
)

func TestIDsStable(t *testing.T) {
	ids := IDs()
	want := []string{"F1", "F2", "F3", "F4a", "F4b", "F5a", "F5b", "T1", "M1", "M2", "M3", "A1", "A2", "A3", "A4"}
	if len(ids) != len(want) {
		t.Fatalf("IDs: %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs[%d] = %s, want %s", i, ids[i], want[i])
		}
	}
}

func TestUnknownID(t *testing.T) {
	if _, err := Run("Z9"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if _, err := RunAll("Z", 1); err == nil {
		t.Fatal("unmatched prefix accepted")
	}
}

func TestCheckOK(t *testing.T) {
	c := Check{Measured: 0.5, Lo: 0.4, Hi: 0.6}
	if !c.OK() {
		t.Fatal("in-band check failed")
	}
	c.Measured = 0.7
	if c.OK() {
		t.Fatal("out-of-band check passed")
	}
}

// The fast experiments run fully in unit tests; the expensive ones are
// exercised by the benchmark harness and cmd/experiments.
func TestFastExperimentsPass(t *testing.T) {
	for _, id := range []string{"F2", "A2"} {
		res, err := Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(res.Lines) == 0 {
			t.Fatalf("%s produced no output", id)
		}
		for _, c := range res.Checks {
			if !c.OK() {
				t.Fatalf("%s: %s out of band: %g not in [%g,%g]", id, c.Name, c.Measured, c.Lo, c.Hi)
			}
		}
		if !strings.Contains(res.Format(), "PASS") {
			t.Fatalf("%s Format missing PASS lines:\n%s", id, res.Format())
		}
	}
}

func TestCaseStudyExperimentChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("case-study experiments are slow")
	}
	for _, id := range []string{"F4a", "F5a", "M1"} {
		res, err := Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, c := range res.Checks {
			if !c.OK() {
				t.Fatalf("%s: %s out of band: measured %g not in [%g,%g] (paper %g)",
					id, c.Name, c.Measured, c.Lo, c.Hi, c.Paper)
			}
		}
	}
}

func TestSummary(t *testing.T) {
	results := []*Result{
		{ID: "X", Checks: []Check{{Name: "good", Measured: 1, Lo: 0, Hi: 2}}},
		{ID: "Y", Checks: []Check{{Name: "bad", Measured: 5, Lo: 0, Hi: 2}}},
	}
	s := Summary(results)
	if !strings.Contains(s, "1 pass") || !strings.Contains(s, "1 fail") || !strings.Contains(s, "Y: bad") {
		t.Fatalf("summary: %s", s)
	}
}
