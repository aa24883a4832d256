// Package core is the PerfExplorer 2.0 facade: it wires the profile
// repository (perfdmf), the analysis operation library, the inference
// engine (rules) and the scripting interface (script) into one session, and
// binds the PerfExplorer object API into the script interpreter so that
// analysis processes are captured as reusable scripts in the style of
// Fig. 1 of the paper:
//
//	ruleHarness = RuleHarness("OpenUHRules.prl")
//	trial = TrialMeanResult(Utilities.getTrial("Fluid Dynamic", "rib 45", "1_8"))
//	derived = DeriveMetric(trial, "BACK_END_BUBBLE_ALL", "CPU_CYCLES", "/")
//	metric = DeriveMetricName("BACK_END_BUBBLE_ALL", "CPU_CYCLES", "/")
//	for event in derived.events {
//	    MeanEventFact.compareEventToMain(derived, metric, event)
//	}
//	ruleHarness.processRules()
//
// The API is the tables of this file and trialobject.go, declared once and
// shared by every session; a row reaches its session through SessionOf.
package core

import (
	"context"
	"fmt"
	"io"
	"io/fs"
	"os"

	"perfknow/internal/analysis"
	"perfknow/internal/perfdmf"
	"perfknow/internal/rules"
	"perfknow/internal/script"
)

// Session couples a profile store, a rule engine and a script interpreter.
// The store may be a local perfdmf.Repository or a dmfclient.Client
// speaking to a remote perfdmfd server — scripts cannot tell the
// difference.
type Session struct {
	Repo   perfdmf.Store
	Engine *rules.Engine
	Interp *script.Interp
	// Rules is the knowledge base RuleHarness reads rule files from, by
	// name relative to its root. Nil until diagnosis.Install sets it.
	Rules fs.FS

	lastResult *rules.Result
}

// NewSession builds a session over a profile store (a fresh in-memory
// repository when repo is nil) and installs the PerfExplorer script API.
func NewSession(repo perfdmf.Store) *Session {
	if repo == nil {
		repo = perfdmf.NewRepository()
	} else if r, ok := repo.(*perfdmf.Repository); ok && r == nil {
		// Guard against a typed nil slipping through the interface.
		repo = perfdmf.NewRepository()
	}
	s := &Session{
		Repo:   repo,
		Engine: rules.NewEngine(),
		Interp: script.New(),
	}
	s.Interp.Stdout = os.Stdout
	s.Interp.Host = s
	s.Interp.Bind(Functions)
	s.Interp.Bind(Utilities)
	s.Interp.Bind(MeanEventFact)
	return s
}

// SessionOf returns the session whose interpreter runs a row.
func SessionOf(in *script.Interp) *Session { return in.Host.(*Session) }

// SetOutput redirects script print output.
func (s *Session) SetOutput(w io.Writer) { s.Interp.Stdout = w }

// SetContext bounds script execution by ctx: when ctx is cancelled or its
// deadline passes, the running script stops with an error wrapping
// ctx.Err(). Servers use this so a hostile or runaway script cannot
// outlive its request.
func (s *Session) SetContext(ctx context.Context) { s.Interp.SetContext(ctx) }

// SetMaxSteps bounds the number of script statements executed per run
// (0 = unlimited) — a defense-in-depth limit alongside SetContext.
func (s *Session) SetMaxSteps(n int) { s.Interp.MaxSteps = n }

// RunScript executes PerfExplorer script source.
func (s *Session) RunScript(src string) error { return s.Interp.Run(src) }

// RunScriptFile executes a script file.
func (s *Session) RunScriptFile(path string) error { return s.Interp.RunFile(path) }

// LastResult returns the result of the most recent processRules call, or nil.
func (s *Session) LastResult() *rules.Result { return s.lastResult }

// Utilities reaches the profile repository.
var Utilities = script.NewModule("Utilities",
	Def("getTrial(app str, experiment str, trial str)", "the stored trial", func(in *script.Interp, _ script.Value, a []script.Value) (script.Value, error) {
		t, err := SessionOf(in).Repo.GetTrialContext(in.Context(), a[0].(string), a[1].(string), a[2].(string))
		if err != nil {
			return nil, err
		}
		return &TrialObject{Trial: t}, nil
	}),
	Def("applications()", "the stored applications", func(in *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
		return listing(SessionOf(in).Repo.ListApplications())
	}),
	Def("experiments(app str)", "the application's experiments", func(in *script.Interp, _ script.Value, a []script.Value) (script.Value, error) {
		return listing(SessionOf(in).Repo.ListExperiments(a[0].(string)))
	}),
	Def("trials(app str, experiment str)", "the experiment's trials", func(in *script.Interp, _ script.Value, a []script.Value) (script.Value, error) {
		return listing(SessionOf(in).Repo.ListTrials(a[0].(string), a[1].(string)))
	}),
	Def("saveTrial(trial trial)", "store the trial under its own application, experiment and name", func(in *script.Interp, _ script.Value, a []script.Value) (script.Value, error) {
		return nil, SessionOf(in).Repo.SaveContext(in.Context(), TrialOf(a[0]))
	}),
)

// MeanEventFact holds the paper's Fig. 1 fact builder.
var MeanEventFact = script.NewModule("MeanEventFact",
	Def("compareEventToMain(trial trial, metric metric, event event)", "assert a MeanEventFact comparing the event's exclusive metric with the main event's inclusive one",
		func(in *script.Interp, _ script.Value, a []script.Value) (script.Value, error) {
			return nil, SessionOf(in).CompareEventToMain(TrialOf(a[0]), a[1].(string), a[2].(*perfdmf.Event).Name)
		}),
)

// Harness is what RuleHarness returns: the session's rule engine.
var Harness = script.NewModule("RuleHarness",
	Def("processRules()", "run the rules to quiescence, print their output and recommendations, and return the output lines", func(in *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
		s := SessionOf(in)
		res, err := s.Engine.RunContext(in.Context())
		if err != nil {
			return nil, err
		}
		s.lastResult = res
		out := script.NewList()
		for _, line := range res.Output {
			out.Items = append(out.Items, line)
			fmt.Fprintln(in.Stdout, line)
		}
		for _, rec := range res.Recommendations {
			fmt.Fprintf(in.Stdout, "recommendation [%s/%s]: %s\n", rec.Rule, rec.Category, rec.Text)
		}
		return out, nil
	}),
	Def("reset()", "clear working memory, keeping the rules", func(in *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
		SessionOf(in).Engine.Reset()
		return nil, nil
	}),
)

// Functions are the session's global functions.
var Functions = script.NewModule("",
	reducer("TrialMeanResult", "mean", analysis.ReduceMean),
	reducer("TrialTotalResult", "sum", analysis.ReduceTotal),
	reducer("TrialMaxResult", "maximum", analysis.ReduceMax),
	Def("DeriveMetric(trial trial, lhs metric, rhs metric, op str)", "a copy of the trial with the metric (lhs op rhs) added; op is one of + - * /", func(in *script.Interp, _ script.Value, a []script.Value) (script.Value, error) {
		return derive(in, a[0], a[1:])
	}),
	Def("DeriveMetricName(lhs str, rhs str, op str)", "the name DeriveMetric gives the metric (lhs op rhs)", func(_ *script.Interp, _ script.Value, a []script.Value) (script.Value, error) {
		op, err := analysis.ParseOp(a[2].(string))
		if err != nil {
			return nil, err
		}
		return analysis.DeriveMetricName(a[0].(string), a[1].(string), op), nil
	}),
	harness("RuleHarness(files str...)", "load .prl rule files of the knowledge base into the session's engine", (*Session).loadRuleFile),
	harness("RuleHarnessFromSource(sources str...)", "load .prl rule text into the session's engine", func(s *Session, src string) error { return s.Engine.LoadString(src) }),
	Def("assertFact(type str, fields map)", "assert a fact of the type with the fields", func(in *script.Interp, _ script.Value, a []script.Value) (script.Value, error) {
		m := a[1].(*script.Map)
		fields := make(map[string]any, len(m.Entries))
		for k, v := range m.Entries {
			fields[k] = v
		}
		SessionOf(in).Engine.Assert(rules.NewFact(a[0].(string), fields))
		return nil, nil
	}),
	Def("LoadBalanceFacts(trial trial, metric metric)", "assert the load-imbalance facts of §III-A; returns how many", func(in *script.Interp, _ script.Value, a []script.Value) (script.Value, error) {
		return float64(SessionOf(in).AssertLoadBalanceFacts(TrialOf(a[0]), a[1].(string))), nil
	}),
)

func reducer(name, what string, r analysis.Reduction) *script.Builtin {
	return Def(name+"(trial trial)", "a one-thread trial holding each value's "+what+" over threads", func(_ *script.Interp, _ script.Value, a []script.Value) (script.Value, error) {
		return &TrialObject{Trial: analysis.Reduce(TrialOf(a[0]), r)}, nil
	})
}

func harness(sig, doc string, load func(*Session, string) error) *script.Builtin {
	return Def(sig, doc+"; returns the harness", func(in *script.Interp, _ script.Value, a []script.Value) (script.Value, error) {
		for _, v := range a {
			if err := load(SessionOf(in), v.(string)); err != nil {
				return nil, err
			}
		}
		return Harness, nil
	})
}

// loadRuleFile loads one rule file of the session's knowledge base. The
// name is a slash-separated path inside it: an absolute path or one with
// ".." is refused before anything is opened, so a script never reads a file
// outside the knowledge base. An open error names the path as requested.
func (s *Session) loadRuleFile(name string) error {
	if s.Rules == nil {
		return fmt.Errorf("rules: %s: no knowledge base installed", name)
	}
	data, err := fs.ReadFile(s.Rules, name)
	if err != nil {
		return fmt.Errorf("rules: %w", err)
	}
	if err := s.Engine.LoadString(string(data)); err != nil {
		return fmt.Errorf("rules: %s: %w", name, err)
	}
	return nil
}

// CompareEventToMain asserts the paper's MeanEventFact for one event: its
// exclusive mean of `metric` against the main event's inclusive mean, with
// severity defined as the event's share of total runtime (TIME when
// available, else the metric itself).
func (s *Session) CompareEventToMain(t *perfdmf.Trial, metric, event string) error {
	e := t.Event(event)
	if e == nil {
		return fmt.Errorf("core: trial %q has no event %q", t.Name, event)
	}
	if !t.HasMetric(metric) {
		return fmt.Errorf("core: trial %q has no metric %q", t.Name, metric)
	}
	// "Main" is the program's top-level event — found by wall-clock time
	// when available, so that derived ratio metrics are still compared
	// against the application's overall value of the ratio.
	mainBy := metric
	if t.HasMetric(perfdmf.TimeMetric) {
		mainBy = perfdmf.TimeMetric
	}
	main := t.MainEvent(mainBy)
	if main == nil {
		return fmt.Errorf("core: trial %q has no main event", t.Name)
	}
	eventVal := perfdmf.Mean(e.Exclusive[metric])
	mainVal := perfdmf.Mean(main.Inclusive[metric])

	higherLower := "EQUAL"
	switch {
	case eventVal > mainVal:
		higherLower = "HIGHER"
	case eventVal < mainVal:
		higherLower = "LOWER"
	}

	sevMetric := metric
	if t.HasMetric(perfdmf.TimeMetric) {
		sevMetric = perfdmf.TimeMetric
	}
	severity := 0.0
	if sm := t.MainEvent(sevMetric); sm != nil {
		if total := perfdmf.Mean(sm.Inclusive[sevMetric]); total > 0 {
			severity = perfdmf.Mean(e.Exclusive[sevMetric]) / total
		}
	}

	s.Engine.Assert(rules.NewFact("MeanEventFact", map[string]any{
		"metric":      metric,
		"eventName":   event,
		"mainValue":   mainVal,
		"eventValue":  eventVal,
		"higherLower": higherLower,
		"severity":    severity,
		"factType":    "Compared to Main",
	}))
	return nil
}

// AssertLoadBalanceFacts asserts the facts the load-imbalance rule joins
// over (§III-A) for one trial, as LoadBalanceFacts derives them, and
// returns how many it asserted. The trial is fed once into a cumulative
// window: its callpaths first, then the flat events with a nonzero mean in
// analysis.LoadBalanceAnalysis order (most imbalanced first), which is
// therefore the order the Imbalance facts and the nested pairs come in.
// Severity is an event's share of the main event's mean inclusive value.
func (s *Session) AssertLoadBalanceFacts(t *perfdmf.Trial, metric string) int {
	lbs := analysis.LoadBalanceAnalysisCtx(s.Interp.Context(), t, metric)
	samples := make([]perfdmf.WindowSample, 0, len(t.Events))
	for _, e := range t.Events {
		if e.IsCallpath() {
			samples = append(samples, perfdmf.WindowSample{Event: e.Name})
		}
	}
	for _, lb := range lbs {
		samples = append(samples, perfdmf.WindowSample{Event: lb.Event, Values: t.Event(lb.Event).Exclusive[metric]})
	}
	mainVal := 0.0
	if main := t.MainEvent(metric); main != nil {
		mainVal = perfdmf.Mean(main.Inclusive[metric])
	}
	window := perfdmf.NewColumnWindow(t.Threads, 0)
	return NewLoadBalanceFacts(s.Engine, window, func(*perfdmf.ColumnWindow) float64 { return mainVal }).Append(samples)
}

// listing is a store listing as a script value; a listing that failed (an
// unreachable remote store, a cluster with every peer down) fails the call.
func listing(names []string, err error) (script.Value, error) {
	if err != nil {
		return nil, err
	}
	return stringList(names), nil
}

func stringList(xs []string) *script.List {
	out := script.NewList()
	for _, x := range xs {
		out.Items = append(out.Items, x)
	}
	return out
}
