package perfdmf

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"perfknow/internal/obs"
)

// The Store operations of a repository: Save and GetTrial wrapped in obs
// spans, so repository I/O shows up in traces of a diagnosis run.

// SaveContext stores the trial under a `perfdmf.save` span.
func (r *Repository) SaveContext(ctx context.Context, t *Trial) error {
	_, sp := obs.StartSpan(ctx, "perfdmf.save",
		"app", t.App, "experiment", t.Experiment, "trial", t.Name)
	err := r.Save(t)
	sp.SetError(err)
	sp.End()
	return err
}

// GetTrialContext loads a trial under a `perfdmf.get_trial` span.
func (r *Repository) GetTrialContext(ctx context.Context, app, experiment, trial string) (*Trial, error) {
	_, sp := obs.StartSpan(ctx, "perfdmf.get_trial",
		"app", app, "experiment", experiment, "trial", trial)
	t, err := r.GetTrial(app, experiment, trial)
	sp.SetError(err)
	sp.End()
	return t, err
}

// TrialFromTrace re-ingests a completed trace as a parallel profile: every
// span becomes an instrumented event whose callpath follows the span tree,
// with inclusive TIME the span's duration and exclusive TIME the duration
// not covered by child spans. The result is a single-thread trial the
// analysis operations and the rules engine consume like any other profile —
// the tool diagnosing itself with its own knowledge base.
func TrialFromTrace(tr obs.Trace, app, experiment, name string) (*Trial, error) {
	if len(tr.Spans) == 0 {
		return nil, fmt.Errorf("perfdmf: trace %s has no spans", tr.TraceID)
	}
	t := NewTrial(app, experiment, name, 1)
	t.AddMetric(TimeMetric)
	t.Metadata["trace_id"] = tr.TraceID
	t.Metadata["source"] = "obs-trace"

	byID := make(map[string]*obs.SpanData, len(tr.Spans))
	for i := range tr.Spans {
		byID[tr.Spans[i].SpanID] = &tr.Spans[i]
	}
	childTime := make(map[string]float64)
	for i := range tr.Spans {
		sp := &tr.Spans[i]
		if sp.ParentID != "" && byID[sp.ParentID] != nil {
			childTime[sp.ParentID] += sp.DurationMicros
		}
	}
	// Callpath: walk parents to the root, joining with the TAU separator.
	path := func(sp *obs.SpanData) string {
		parts := []string{sp.Name}
		seen := map[string]bool{sp.SpanID: true}
		for cur := sp; cur.ParentID != "" && byID[cur.ParentID] != nil; {
			cur = byID[cur.ParentID]
			if seen[cur.SpanID] {
				break // defensive: cyclic parent ids in a malformed trace
			}
			seen[cur.SpanID] = true
			parts = append(parts, cur.Name)
		}
		for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
			parts[i], parts[j] = parts[j], parts[i]
		}
		return strings.Join(parts, CallpathSeparator)
	}

	// Deterministic event order regardless of span arrival order.
	order := make([]int, len(tr.Spans))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		sa, sb := &tr.Spans[order[a]], &tr.Spans[order[b]]
		if sa.StartUnixNano != sb.StartUnixNano {
			return sa.StartUnixNano < sb.StartUnixNano
		}
		return sa.SpanID < sb.SpanID
	})
	for _, i := range order {
		sp := &tr.Spans[i]
		e := t.EnsureEvent(path(sp))
		e.Calls[0]++
		excl := sp.DurationMicros - childTime[sp.SpanID]
		if excl < 0 {
			excl = 0
		}
		e.Inclusive[TimeMetric][0] += sp.DurationMicros
		e.Exclusive[TimeMetric][0] += excl
		if sp.Error != "" && !hasGroup(e, "ERROR") {
			e.Groups = append(e.Groups, "ERROR")
		}
	}
	return t, nil
}

func hasGroup(e *Event, g string) bool {
	for _, x := range e.Groups {
		if x == g {
			return true
		}
	}
	return false
}
