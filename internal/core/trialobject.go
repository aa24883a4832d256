package core

import (
	"fmt"

	"perfknow/internal/analysis"
	"perfknow/internal/perfdmf"
	"perfknow/internal/script"
)

// TrialObject wraps a perfdmf.Trial as a scriptable object: the rows of
// TrialMembers are its properties and methods.
type TrialObject struct {
	Trial *perfdmf.Trial
}

// TypeName implements script.Object.
func (t *TrialObject) TypeName() string { return "Trial(" + t.Trial.Name + ")" }

// Members implements script.Object.
func (t *TrialObject) Members() *script.Module { return TrialMembers }

// The host kinds. A trial argument is a trial object. An event or metric
// argument is a name resolved against the receiver trial — a method's, or a
// function's first argument — so an absent one is the same error in every
// row: an event resolves to its *perfdmf.Event, a metric to its name.
var (
	trialKind = script.NewKind("trial", "a trial", func(v, _ script.Value) (script.Value, error) {
		if _, ok := v.(*TrialObject); !ok {
			return nil, script.ErrKind
		}
		return v, nil
	})
	eventKind = script.NewKind("event", "an event name", func(v, recv script.Value) (script.Value, error) {
		name, ok := v.(string)
		if !ok {
			return nil, script.ErrKind
		}
		if e := TrialOf(recv).Event(name); e != nil {
			return e, nil
		}
		return nil, fmt.Errorf("no event %q", name)
	})
	metricKind = script.NewKind("metric", "a metric name", func(v, recv script.Value) (script.Value, error) {
		name, ok := v.(string)
		if !ok {
			return nil, script.ErrKind
		}
		if !TrialOf(recv).HasMetric(name) {
			return nil, fmt.Errorf("no metric %q", name)
		}
		return v, nil
	})
)

// Def declares a row whose signature may name the trial, event and metric
// kinds beside the built-in ones.
func Def(sig, doc string, impl script.Impl) *script.Builtin {
	return script.Def(sig, doc, impl, trialKind, eventKind, metricKind)
}

// TrialOf is the trial a checked trial argument or a method receiver holds.
func TrialOf(v script.Value) *perfdmf.Trial { return v.(*TrialObject).Trial }

// TrialMembers is the member table every trial object shares.
var TrialMembers = script.NewModule("Trial",
	prop("name", "the trial's name", func(t *perfdmf.Trial) script.Value { return t.Name }),
	prop("application", "the trial's application", func(t *perfdmf.Trial) script.Value { return t.App }),
	prop("experiment", "the trial's experiment", func(t *perfdmf.Trial) script.Value { return t.Experiment }),
	prop("threads", "the number of threads", func(t *perfdmf.Trial) script.Value { return float64(t.Threads) }),
	prop("events", "the event names, sorted", func(t *perfdmf.Trial) script.Value { return stringList(t.EventNames()) }),
	prop("metrics", "the metric names, in trial order", func(t *perfdmf.Trial) script.Value { return stringList(t.Metrics) }),
	prop("mainEvent", "the top-level event by TIME (else the first metric), or \"\"", func(t *perfdmf.Trial) script.Value {
		if main := t.MainEvent(timeOrFirstMetric(t)); main != nil {
			return main.Name
		}
		return ""
	}),
	Def("metadata(key str)", "the metadata value stored under key", func(_ *script.Interp, recv script.Value, a []script.Value) (script.Value, error) {
		return TrialOf(recv).Metadata[a[0].(string)], nil
	}),
	stat("meanExclusive", "the mean over threads of the event's exclusive metric", false, perfdmf.Mean),
	stat("meanInclusive", "the mean over threads of the event's inclusive metric", true, perfdmf.Mean),
	stat("stddevExclusive", "the standard deviation over threads of the event's exclusive metric", false, perfdmf.StdDev),
	stat("totalExclusive", "the sum over threads of the event's exclusive metric", false, perfdmf.Sum),
	stat("maxExclusive", "the largest per-thread exclusive metric of the event", false, maxOf),
	Def("calls(event event)", "the calls to the event, summed over threads", func(_ *script.Interp, _ script.Value, a []script.Value) (script.Value, error) {
		return perfdmf.Sum(a[0].(*perfdmf.Event).Calls), nil
	}),
	Def("deriveMetric(lhs metric, rhs metric, op str)", "DeriveMetric on this trial", func(in *script.Interp, recv script.Value, a []script.Value) (script.Value, error) {
		return derive(in, recv, a)
	}),
	Def("correlation(eventA event, eventB event, metric metric)", "the Pearson correlation over threads of two events' exclusive metric", func(_ *script.Interp, recv script.Value, a []script.Value) (script.Value, error) {
		return analysis.EventCorrelation(TrialOf(recv), a[2].(string), a[0].(*perfdmf.Event).Name, a[1].(*perfdmf.Event).Name)
	}),
	Def("isNested(outer event, inner event)", "whether a callpath event shows outer calling inner", func(_ *script.Interp, recv script.Value, a []script.Value) (script.Value, error) {
		return analysis.IsNested(TrialOf(recv), a[0].(*perfdmf.Event).Name, a[1].(*perfdmf.Event).Name), nil
	}),
	Def("topN(metric metric, n count)", "the n flat events with the largest mean exclusive metric, largest first", func(_ *script.Interp, recv script.Value, a []script.Value) (script.Value, error) {
		return stringList(analysis.TopN(TrialOf(recv), a[0].(string), int(a[1].(float64)))), nil
	}),
	Def("imbalanceRatio(event event, metric metric)", "the standard deviation over the mean of the event's exclusive metric, 0 when the mean is 0", func(_ *script.Interp, _ script.Value, a []script.Value) (script.Value, error) {
		vals := a[0].(*perfdmf.Event).Exclusive[a[1].(string)]
		mean := perfdmf.Mean(vals)
		if mean == 0 {
			return 0.0, nil
		}
		return perfdmf.StdDev(vals) / mean, nil
	}),
	Def("extract(events list)", "a copy of the trial holding only the named events", func(_ *script.Interp, recv script.Value, a []script.Value) (script.Value, error) {
		l := a[0].(*script.List)
		names := make([]string, len(l.Items))
		for i, it := range l.Items {
			names[i] = script.ToString(it)
		}
		return &TrialObject{Trial: analysis.ExtractEvents(TrialOf(recv), names)}, nil
	}),
)

func prop(name, doc string, get func(t *perfdmf.Trial) script.Value) *script.Builtin {
	return Def(name, doc, func(_ *script.Interp, recv script.Value, _ []script.Value) (script.Value, error) {
		return get(TrialOf(recv)), nil
	})
}

func stat(name, doc string, inclusive bool, f func([]float64) float64) *script.Builtin {
	return Def(name+"(event event, metric metric)", doc, func(_ *script.Interp, _ script.Value, a []script.Value) (script.Value, error) {
		e, metric := a[0].(*perfdmf.Event), a[1].(string)
		if inclusive {
			return f(e.Inclusive[metric]), nil
		}
		return f(e.Exclusive[metric]), nil
	})
}

// derive is DeriveMetric(trial, lhs, rhs, op) and trial.deriveMetric(lhs,
// rhs, op) both: a copy of the trial with the metric (lhs op rhs) added.
func derive(in *script.Interp, trial script.Value, a []script.Value) (script.Value, error) {
	op, err := analysis.ParseOp(a[2].(string))
	if err != nil {
		return nil, err
	}
	out, _, err := analysis.DeriveMetricCtx(in.Context(), TrialOf(trial), a[0].(string), a[1].(string), op)
	if err != nil {
		return nil, err
	}
	return &TrialObject{Trial: out}, nil
}

func timeOrFirstMetric(t *perfdmf.Trial) string {
	if !t.HasMetric(perfdmf.TimeMetric) && len(t.Metrics) > 0 {
		return t.Metrics[0]
	}
	return perfdmf.TimeMetric
}

func maxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
