package analysis

import (
	"context"
	"testing"

	"perfknow/internal/perfdmf"
)

// A trial Trial.Validate rejects is an invalid argument to every operation:
// the ones with an error result return Validate's message, the others return
// their empty result, and none panics or computes some other way. Every
// generated trial of differential_test.go passes Validate, so this table is
// the only thing that reaches those branches.

// invalidTrials builds one trial per defect, each valid but for that defect.
func invalidTrials() map[string]*perfdmf.Trial {
	build := func(name string) *perfdmf.Trial {
		tr := perfdmf.NewTrial("app", "exp", name, 2)
		tr.AddMetric(perfdmf.TimeMetric)
		tr.AddMetric("PAPI_FP_OPS")
		for _, ev := range []string{"main", "compute", "main => compute"} {
			e := tr.EnsureEvent(ev)
			for th := 0; th < 2; th++ {
				e.Calls[th] = 1
				e.SetValue(perfdmf.TimeMetric, th, float64(10+th), float64(5+th))
				e.SetValue("PAPI_FP_OPS", th, float64(100+th), float64(50+th))
			}
		}
		return tr
	}
	out := make(map[string]*perfdmf.Trial)

	tr := build("zero threads")
	tr.Threads = 0
	out[tr.Name] = tr

	tr = build("duplicate event")
	dup := *tr.Events[1]
	tr.Events = append(tr.Events, &dup)
	out[tr.Name] = tr

	tr = build("short calls")
	tr.Events[1].Calls = tr.Events[1].Calls[:1]
	out[tr.Name] = tr

	tr = build("short inclusive")
	tr.Events[1].Inclusive[perfdmf.TimeMetric] = []float64{1}
	out[tr.Name] = tr

	tr = build("short exclusive")
	tr.Events[1].Exclusive[perfdmf.TimeMetric] = []float64{1}
	out[tr.Name] = tr

	tr = build("short exclusive-only row")
	tr.Events[1].Exclusive["EXTRA"] = []float64{1}
	out[tr.Name] = tr

	tr = build("inclusive without exclusive")
	tr.Events[1].Inclusive["EXTRA"] = []float64{1, 2}
	out[tr.Name] = tr

	return out
}

func TestInvalidTrials(t *testing.T) {
	const m, m2 = perfdmf.TimeMetric, "PAPI_FP_OPS"
	ctx := context.Background()
	valid := perfdmf.NewTrial("app", "exp", "valid", 2)
	valid.AddMetric(m)
	valid.EnsureEvent("main").SetValue(m, 0, 3, 3)

	for name, bad := range invalidTrials() {
		t.Run(name, func(t *testing.T) {
			verr := bad.Validate()
			if verr == nil {
				t.Fatal("the trial passes Validate")
			}
			want := verr.Error()

			// Operations with an error result return Validate's message.
			errOps := map[string]func() error{
				"DeriveMetric":    func() error { _, _, err := DeriveMetric(bad, m, m2, OpDivide); return err },
				"DeriveMetricCtx": func() error { _, _, err := DeriveMetricCtx(ctx, bad, m, m2, OpDivide); return err },
				"DeriveScaled":    func() error { _, _, err := DeriveScaled(bad, m, 2); return err },
				"DeriveSum":       func() error { _, _, err := DeriveSum(bad, []string{m, m2}); return err },
				"KMeans":          func() error { _, err := KMeans(bad, m, 1, 5); return err },
				"KMeansCtx":       func() error { _, err := KMeansCtx(ctx, bad, m, 1, 5); return err },
				"DiffTrials a":    func() error { _, err := DiffTrials(bad, bad); return err },
				"MergeTrials":     func() error { _, err := MergeTrials([]*perfdmf.Trial{bad, bad}); return err },
			}
			if bad.Threads == valid.Threads { // else the thread-count check answers first
				errOps["DiffTrials b"] = func() error { _, err := DiffTrials(valid, bad); return err }
				errOps["MergeTrials later"] = func() error { _, err := MergeTrials([]*perfdmf.Trial{valid, bad}); return err }
			}
			for op, run := range errOps {
				if err := run(); err == nil || err.Error() != want {
					t.Errorf("%s: error %v, want %q", op, err, want)
				}
			}

			// Operations without one return their empty result.
			for op, tr := range map[string]*perfdmf.Trial{
				"Reduce":        Reduce(bad, ReduceMean),
				"ExtractEvents": ExtractEvents(bad, []string{"main"}),
			} {
				if tr == nil || len(tr.Events) != 0 || tr.Name != bad.Name || len(tr.Metrics) != len(bad.Metrics) {
					t.Errorf("%s: got %+v, want an empty trial like the source", op, tr)
				} else if err := tr.Validate(); err != nil {
					t.Errorf("%s: empty result is itself invalid: %v", op, err)
				}
			}
			for op, n := range map[string]int{
				"TopN":                len(TopN(bad, m, 3)),
				"TopNCtx":             len(TopNCtx(ctx, bad, m, 3)),
				"ExclusiveStats":      len(ExclusiveStats(bad, m)),
				"ExclusiveStatsCtx":   len(ExclusiveStatsCtx(ctx, bad, m)),
				"InclusiveStats":      len(InclusiveStats(bad, m)),
				"InclusiveStatsCtx":   len(InclusiveStatsCtx(ctx, bad, m)),
				"RelativeChange base": len(RelativeChange(bad, valid, m, 0)),
				"RelativeChange new":  len(RelativeChange(valid, bad, m, 0)),
			} {
				if n != 0 {
					t.Errorf("%s: %d rows from an invalid trial, want none", op, n)
				}
			}

			// The operations that read the trial's rows directly never
			// pivot; they only have to survive it.
			LoadBalanceAnalysis(bad, m)
			LoadBalanceAnalysisCtx(ctx, bad, m)
			EventCorrelation(bad, m, "main", "compute")
			MetricCorrelation(bad, m, m2)
			IsNested(bad, "main", "compute")
			ScalingSeries([]*perfdmf.Trial{bad, valid}, m)
			PerEventSpeedup(bad, valid, m)
			PerEventSpeedup(valid, bad, m)
		})
	}
}

// Validate accepts a metric registered twice; a merge that summed it twice
// would be wrong, so MergeTrials names it.
func TestMergeTrialsRefusesTwiceRegisteredMetric(t *testing.T) {
	tr := perfdmf.NewTrial("app", "exp", "twice", 2)
	tr.AddMetric(perfdmf.TimeMetric)
	tr.EnsureEvent("main").SetValue(perfdmf.TimeMetric, 0, 3, 3)
	tr.Metrics = append(tr.Metrics, perfdmf.TimeMetric)
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate rejects the trial: %v", err)
	}
	_, err := MergeTrials([]*perfdmf.Trial{tr, tr})
	want := `analysis: trial "twice" registers metric "` + perfdmf.TimeMetric + `" twice`
	if err == nil || err.Error() != want {
		t.Fatalf("error %v, want %q", err, want)
	}
}
