package perfdmf

import (
	"context"
	"testing"

	"perfknow/internal/obs"
)

func TestTrialFromTrace(t *testing.T) {
	tr := obs.Trace{
		TraceID: "t1",
		Spans: []obs.SpanData{
			{TraceID: "t1", SpanID: "a", Name: "run", StartUnixNano: 100, DurationMicros: 1000},
			{TraceID: "t1", SpanID: "b", ParentID: "a", Name: "script.stmt", StartUnixNano: 200, DurationMicros: 600},
			{TraceID: "t1", SpanID: "c", ParentID: "b", Name: "perfdmf.get_trial", StartUnixNano: 250, DurationMicros: 100, Error: "not found"},
			{TraceID: "t1", SpanID: "d", ParentID: "a", Name: "script.stmt", StartUnixNano: 900, DurationMicros: 300},
		},
	}
	trial, err := TrialFromTrace(tr, "obs", "self", "run1")
	if err != nil {
		t.Fatal(err)
	}
	if trial.Threads != 1 || !trial.HasMetric(TimeMetric) {
		t.Fatalf("trial shape: threads=%d metrics=%v", trial.Threads, trial.Metrics)
	}
	if trial.Metadata["trace_id"] != "t1" {
		t.Errorf("metadata = %v", trial.Metadata)
	}

	root := trial.Event("run")
	if root == nil {
		t.Fatal("missing root event")
	}
	// run: inclusive 1000, exclusive 1000-600-300=100
	if root.Inclusive[TimeMetric][0] != 1000 || root.Exclusive[TimeMetric][0] != 100 {
		t.Errorf("root TIME incl=%v excl=%v", root.Inclusive[TimeMetric][0], root.Exclusive[TimeMetric][0])
	}

	// The two script.stmt spans share one callpath event with 2 calls.
	stmt := trial.Event("run => script.stmt")
	if stmt == nil {
		t.Fatal("missing callpath event 'run => script.stmt'")
	}
	if stmt.Calls[0] != 2 {
		t.Errorf("stmt calls = %v, want 2", stmt.Calls[0])
	}
	if stmt.Inclusive[TimeMetric][0] != 900 { // 600 + 300
		t.Errorf("stmt inclusive = %v, want 900", stmt.Inclusive[TimeMetric][0])
	}
	if stmt.Exclusive[TimeMetric][0] != 800 { // (600-100) + 300
		t.Errorf("stmt exclusive = %v, want 800", stmt.Exclusive[TimeMetric][0])
	}

	get := trial.Event("run => script.stmt => perfdmf.get_trial")
	if get == nil {
		t.Fatal("missing repo span event")
	}
	if !hasGroup(get, "ERROR") {
		t.Errorf("failed span should carry ERROR group, got %v", get.Groups)
	}

	if _, err := TrialFromTrace(obs.Trace{TraceID: "empty"}, "a", "b", "c"); err == nil {
		t.Error("empty trace must be rejected")
	}
}

func TestRepositoryContextSpans(t *testing.T) {
	tracer := obs.NewTracer()
	ctx := obs.ContextWithTracer(context.Background(), tracer)
	ctx, root := obs.StartSpan(ctx, "test")

	repo := NewRepository()
	trial := NewTrial("app", "exp", "t1", 1)
	trial.AddMetric(TimeMetric)
	ev := trial.EnsureEvent("main")
	ev.Calls[0] = 1
	ev.Inclusive[TimeMetric][0] = 10
	ev.Exclusive[TimeMetric][0] = 10

	if err := repo.SaveContext(ctx, trial); err != nil {
		t.Fatal(err)
	}
	if _, err := repo.GetTrialContext(ctx, "app", "exp", "t1"); err != nil {
		t.Fatal(err)
	}
	if err := repo.DeleteContext(ctx, "app", "exp", "t1"); err != nil {
		t.Fatal(err)
	}
	root.End()

	traces := tracer.Traces()
	if len(traces) != 1 {
		t.Fatalf("want 1 trace, got %d", len(traces))
	}
	names := map[string]bool{}
	for _, s := range traces[0].Spans {
		names[s.Name] = true
		if s.Name != "test" && s.ParentID != root.SpanID() {
			t.Errorf("span %s parent = %q, want root", s.Name, s.ParentID)
		}
	}
	for _, want := range []string{"perfdmf.save", "perfdmf.get_trial", "perfdmf.delete"} {
		if !names[want] {
			t.Errorf("missing span %s in %v", want, names)
		}
	}
}
