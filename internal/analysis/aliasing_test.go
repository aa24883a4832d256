package analysis

import (
	"testing"

	"perfknow/internal/perfdmf"
)

// Satellite regression for the aliasing audit: derived trials must not share
// backing storage with their sources. Mutating every reachable slice and map
// of each op's output must leave the source trial bit-identical — for the
// columnar operations, which rebuild trials from flat blocks and could
// easily leak subslice views of a shared buffer, and for the row oracle they
// are compared against.
func TestDerivedTrialsDoNotAliasSource(t *testing.T) {
	build := func() *perfdmf.Trial {
		tr := perfdmf.NewTrial("app", "exp", "src", 4)
		tr.AddMetric(perfdmf.TimeMetric)
		tr.AddMetric("PAPI_FP_OPS")
		tr.Metadata["host"] = "n0"
		for _, name := range []string{"main", "compute", "io", "main => compute"} {
			e := tr.EnsureEvent(name)
			e.Groups = []string{"G"}
			for th := 0; th < 4; th++ {
				e.Calls[th] = float64(th + 1)
				e.SetValue(perfdmf.TimeMetric, th, float64(10*th), float64(th))
				e.SetValue("PAPI_FP_OPS", th, float64(100*th), float64(2*th))
			}
		}
		return tr
	}

	// vandalize overwrites everything reachable from a trial.
	vandalize := func(out *perfdmf.Trial) {
		if out == nil {
			return
		}
		for k := range out.Metadata {
			out.Metadata[k] = "clobbered"
		}
		for i := range out.Metrics {
			out.Metrics[i] = "clobbered"
		}
		for _, e := range out.Events {
			e.Name = "clobbered"
			for i := range e.Groups {
				e.Groups[i] = "clobbered"
			}
			e.Groups = append(e.Groups, "grown")
			for i := range e.Calls {
				e.Calls[i] = -999
			}
			e.Calls = append(e.Calls, -1)
			for _, m := range []map[string][]float64{e.Inclusive, e.Exclusive} {
				for k, vals := range m {
					for i := range vals {
						vals[i] = -999
					}
					m[k] = append(vals, -1)
				}
			}
		}
	}

	derived := func(out *perfdmf.Trial, _ string, err error) (*perfdmf.Trial, error) { return out, err }

	// Every trial-returning operation, once per implementation.
	columnar := func(t *testing.T, src, sib *perfdmf.Trial) []*perfdmf.Trial {
		must := mustTrial(t)
		return []*perfdmf.Trial{
			must(derived(DeriveMetric(src, perfdmf.TimeMetric, "PAPI_FP_OPS", OpDivide))),
			must(derived(DeriveScaled(src, perfdmf.TimeMetric, 2))),
			must(derived(DeriveSum(src, src.Metrics))),
			Reduce(src, ReduceMean),
			ExtractEvents(src, []string{"main", "io"}),
			must(DiffTrials(src, sib)),
			must(MergeTrials([]*perfdmf.Trial{src, sib})),
		}
	}
	row := func(t *testing.T, src, sib *perfdmf.Trial) []*perfdmf.Trial {
		must := mustTrial(t)
		return []*perfdmf.Trial{
			must(derived(DeriveMetricRow(src, perfdmf.TimeMetric, "PAPI_FP_OPS", OpDivide))),
			must(derived(DeriveScaledRow(src, perfdmf.TimeMetric, 2))),
			must(derived(DeriveSumRow(src, src.Metrics))),
			ReduceRow(src, ReduceMean),
			ExtractEventsRow(src, []string{"main", "io"}),
			must(DiffTrialsRow(src, sib)),
			must(MergeTrialsRow([]*perfdmf.Trial{src, sib})),
		}
	}

	for _, engine := range []struct {
		name   string
		derive func(t *testing.T, src, sib *perfdmf.Trial) []*perfdmf.Trial
	}{{"columnar", columnar}, {"row", row}} {
		t.Run(engine.name, func(t *testing.T) {
			src := build()
			sib := build()
			sib.Name = "sib"
			before := dumpTrial(src)
			beforeSib := dumpTrial(sib)

			for _, out := range engine.derive(t, src, sib) {
				vandalize(out)
			}
			if got := dumpTrial(src); got != before {
				t.Errorf("source trial mutated through a derived trial\nbefore:\n%s\nafter:\n%s", before, got)
			}
			if got := dumpTrial(sib); got != beforeSib {
				t.Errorf("sibling trial mutated through a derived trial\nbefore:\n%s\nafter:\n%s", beforeSib, got)
			}
		})
	}
}

// mustTrial unwraps an operation's (trial, error) result, failing t on error.
func mustTrial(t *testing.T) func(*perfdmf.Trial, error) *perfdmf.Trial {
	return func(out *perfdmf.Trial, err error) *perfdmf.Trial {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
}

// Columns↔Trial conversions in the analysis layer must also deep-copy:
// mutating a trial obtained from a Columns view of a source must not write
// through to that source.
func TestColumnsViewDoesNotAliasSource(t *testing.T) {
	src := perfdmf.NewTrial("app", "exp", "src", 2)
	src.AddMetric(perfdmf.TimeMetric)
	e := src.EnsureEvent("main")
	e.SetValue(perfdmf.TimeMetric, 0, 7, 7)
	e.SetValue(perfdmf.TimeMetric, 1, 9, 9)
	before := dumpTrial(src)

	c, err := perfdmf.ColumnsFromTrial(src)
	if err != nil {
		t.Fatal(err)
	}
	c.Calls[0] = -1
	c.Cols[0].Inc[0] = -1
	c.Cols[0].Exc[1] = -1
	c.Metadata["x"] = "y"
	if got := dumpTrial(src); got != before {
		t.Errorf("ColumnsFromTrial aliased the source:\nbefore:\n%s\nafter:\n%s", before, got)
	}
}
