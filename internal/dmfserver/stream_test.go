package dmfserver

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"perfknow/internal/core"
	"perfknow/internal/diagnosis"
	"perfknow/internal/dmfclient"
	"perfknow/internal/dmfwire"
	"perfknow/internal/perfdmf"
)

// trialChunks splits a trial into per-event chunks, the shape a streaming
// producer would send.
func trialChunks(tr *perfdmf.Trial, eventsPerChunk int) [][]dmfwire.ChunkEvent {
	var chunks [][]dmfwire.ChunkEvent
	for start := 0; start < len(tr.Events); start += eventsPerChunk {
		end := start + eventsPerChunk
		if end > len(tr.Events) {
			end = len(tr.Events)
		}
		var chunk []dmfwire.ChunkEvent
		for _, ev := range tr.Events[start:end] {
			chunk = append(chunk, dmfwire.ChunkEvent{
				Name:      ev.Name,
				Groups:    ev.Groups,
				Calls:     ev.Calls,
				Inclusive: ev.Inclusive,
				Exclusive: ev.Exclusive,
			})
		}
		chunks = append(chunks, chunk)
	}
	return chunks
}

// TestStreamSealByteIdentical is the tentpole acceptance test: the same
// trial data pushed through the streaming API must store the exact bytes a
// whole-file upload stores, and diagnose identically afterwards.
func TestStreamSealByteIdentical(t *testing.T) {
	wholeDir, streamDir := t.TempDir(), t.TempDir()
	wholeRepo, err := perfdmf.OpenRepository(wholeDir)
	if err != nil {
		t.Fatal(err)
	}
	streamRepo, err := perfdmf.OpenRepository(streamDir)
	if err != nil {
		t.Fatal(err)
	}
	_, whole := newService(t, Config{Repo: wholeRepo})
	_, streamed := newService(t, Config{Repo: streamRepo})

	tr := stallTrial("app", "exp", "t1")
	if err := whole.SaveContext(context.Background(), tr); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	info, err := streamed.OpenStream(ctx, "app", "exp", "t1", tr.Threads, tr.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	var seq int64
	for _, chunk := range trialChunks(tr, 1) {
		seq++
		if _, err := streamed.Append(ctx, info.ID, seq, chunk); err != nil {
			t.Fatalf("append %d: %v", seq, err)
		}
	}
	sum, err := streamed.Seal(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Events != len(tr.Events) || sum.Metrics != len(tr.Metrics) {
		t.Fatalf("seal summary = %+v", sum)
	}

	// Stored envelopes must match byte for byte.
	path := filepath.Join("app", "exp", "t1.json")
	wantBytes, err := os.ReadFile(filepath.Join(wholeDir, path))
	if err != nil {
		t.Fatal(err)
	}
	gotBytes, err := os.ReadFile(filepath.Join(streamDir, path))
	if err != nil {
		t.Fatal(err)
	}
	if string(wantBytes) != string(gotBytes) {
		t.Fatalf("sealed trial file diverges from whole upload:\nwhole:\n%s\nstreamed:\n%s", wantBytes, gotBytes)
	}

	// And server-side diagnosis of the two must print identical bytes.
	req := DiagnoseRequest{Script: "stalls_per_cycle", Args: []string{"app", "exp", "t1"}}
	wantDiag, err := whole.DiagnoseContext(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	gotDiag, err := streamed.DiagnoseContext(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if wantDiag.Stdout != gotDiag.Stdout {
		t.Fatalf("diagnosis diverges:\nwhole:\n%q\nstreamed:\n%q", wantDiag.Stdout, gotDiag.Stdout)
	}
	if !strings.Contains(gotDiag.Stdout, "hot") {
		t.Fatalf("diagnosis found nothing:\n%s", gotDiag.Stdout)
	}
}

func TestStreamSeqProtocol(t *testing.T) {
	_, c := newService(t, Config{})
	ctx := context.Background()

	info, err := c.OpenStream(ctx, "a", "e", "t", 2, []string{perfdmf.TimeMetric})
	if err != nil {
		t.Fatal(err)
	}
	if info.State != "open" || info.ID == "" {
		t.Fatalf("opened stream = %+v", info)
	}

	chunk := []dmfwire.ChunkEvent{{
		Name:      "main",
		Calls:     []float64{1, 1},
		Inclusive: map[string][]float64{perfdmf.TimeMetric: {10, 20}},
		Exclusive: map[string][]float64{perfdmf.TimeMetric: {10, 20}},
	}}
	ack1, err := c.Append(ctx, info.ID, 1, chunk)
	if err != nil {
		t.Fatal(err)
	}
	if ack1.Seq != 1 || ack1.Events != 1 {
		t.Fatalf("ack1 = %+v", ack1)
	}

	// A replayed seq acknowledges without re-applying: the event count must
	// not move and the per-thread values must stay single-counted.
	ackDup, err := c.Append(ctx, info.ID, 1, chunk)
	if err != nil {
		t.Fatal(err)
	}
	if ackDup.Seq != 1 || ackDup.Events != ack1.Events || !ackDup.Duplicate {
		t.Fatalf("replayed ack = %+v, want seq 1 marked duplicate with %d events", ackDup, ack1.Events)
	}

	// A gap is a protocol error the producer must not paper over.
	if _, err := c.Append(ctx, info.ID, 3, chunk); err == nil || !strings.Contains(err.Error(), "skips ahead") {
		t.Fatalf("gap append: %v", err)
	}

	if _, err := c.Append(ctx, info.ID, 2, chunk); err != nil {
		t.Fatal(err)
	}

	sum, err := c.Seal(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Events != 1 || sum.Threads != 2 {
		t.Fatalf("seal = %+v", sum)
	}
	// Sealing is idempotent.
	sum2, err := c.Seal(ctx, info.ID)
	if err != nil || *sum2 != *sum {
		t.Fatalf("repeated seal = %+v, %v (want %+v)", sum2, err, sum)
	}
	// Appending to a sealed stream conflicts.
	if _, err := c.Append(ctx, info.ID, 3, chunk); err == nil || !strings.Contains(err.Error(), "sealed") {
		t.Fatalf("append after seal: %v", err)
	}

	// Two chunks applied the same event twice: values accumulated.
	tr, err := c.GetTrialContext(context.Background(), "a", "e", "t")
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Events[0].Exclusive[perfdmf.TimeMetric][0]; got != 20 {
		t.Fatalf("accumulated exclusive = %v, want 20 (two chunks of 10)", got)
	}

	// The stream surfaces in metrics.
	snap, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for counter, want := range map[string]int64{
		"streams_opened_total": 1,
		"streams_sealed_total": 1,
		"stream_chunks_total":  2,
	} {
		if got := snap.Counters[counter]; got != want {
			t.Fatalf("%s = %d, want %d (counters %+v)", counter, got, want, snap.Counters)
		}
	}
	if got := snap.Gauges["streams_active"]; got != 0 {
		t.Fatalf("streams_active = %v after seal, want 0", got)
	}
}

func TestStreamOpenValidation(t *testing.T) {
	_, c := newService(t, Config{})
	ctx := context.Background()
	metrics := []string{perfdmf.TimeMetric}

	cases := []struct {
		name string
		open func() error
		want string
	}{
		{"missing coords", func() error {
			_, err := c.OpenStream(ctx, "", "e", "t", 2, metrics)
			return err
		}, "app"},
		{"bad threads", func() error {
			_, err := c.OpenStream(ctx, "a", "e", "t", 0, metrics)
			return err
		}, "threads"},
		{"no metrics", func() error {
			_, err := c.OpenStream(ctx, "a", "e", "t", 2, nil)
			return err
		}, "metric"},
		{"unregistered diagnosis metric", func() error {
			_, err := c.OpenStream(ctx, "a", "e", "t", 2, metrics, dmfclient.WithStreamMetric("FLOPS"))
			return err
		}, "not a registered"},
		{"path-traversing rule name", func() error {
			_, err := c.OpenStream(ctx, "a", "e", "t", 2, metrics, dmfclient.WithStandingRules("../evil"))
			return err
		}, "rule"},
		{"unknown rule set", func() error {
			_, err := c.OpenStream(ctx, "a", "e", "t", 2, metrics, dmfclient.WithStandingRules("NoSuchRules"))
			return err
		}, "NoSuchRules"},
	}
	for _, tc := range cases {
		err := tc.open()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}

	// Unknown stream ids are ErrNotFound across every stream verb.
	if _, err := c.Append(ctx, "nope", 1, nil); !errors.Is(err, perfdmf.ErrNotFound) {
		t.Fatalf("append to unknown stream: %v", err)
	}
	if _, err := c.Seal(ctx, "nope"); !errors.Is(err, perfdmf.ErrNotFound) {
		t.Fatalf("seal of unknown stream: %v", err)
	}
	if _, err := c.Stream(ctx, "nope"); !errors.Is(err, perfdmf.ErrNotFound) {
		t.Fatalf("get of unknown stream: %v", err)
	}
}

func TestStreamListAndAbort(t *testing.T) {
	_, c := newService(t, Config{})
	ctx := context.Background()

	a, err := c.OpenStream(ctx, "a", "e", "t1", 2, []string{perfdmf.TimeMetric})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.OpenStream(ctx, "a", "e", "t2", 2, []string{perfdmf.TimeMetric})
	if err != nil {
		t.Fatal(err)
	}
	streams, err := c.Streams(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(streams) != 2 || streams[0].ID != a.ID || streams[1].ID != b.ID {
		t.Fatalf("streams = %+v", streams)
	}

	if err := c.AbortStream(ctx, a.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stream(ctx, a.ID); !errors.Is(err, perfdmf.ErrNotFound) {
		t.Fatalf("aborted stream still visible: %v", err)
	}
	// Nothing was stored for the aborted stream.
	if _, err := c.GetTrialContext(context.Background(), "a", "e", "t1"); !errors.Is(err, perfdmf.ErrNotFound) {
		t.Fatalf("aborted stream stored a trial: %v", err)
	}
	// An open default-window stream reports the server default.
	if b.Window != DefaultStreamWindow {
		t.Fatalf("default window = %d, want %d", b.Window, DefaultStreamWindow)
	}
	snap, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Gauges["streams_active"]; got != 1 {
		t.Fatalf("streams_active = %v, want 1", got)
	}
}

// TestDeletedSealedStreamLeavesRetention: deleting a sealed stream frees
// its place in the sealed-stream retention, so a later seal does not evict
// a stream the bound still has room for.
func TestDeletedSealedStreamLeavesRetention(t *testing.T) {
	_, c := newService(t, Config{Repo: perfdmf.NewRepository()})
	ctx := context.Background()
	chunk := []dmfwire.ChunkEvent{{
		Name:      "main",
		Calls:     []float64{1, 1},
		Inclusive: map[string][]float64{perfdmf.TimeMetric: {10, 20}},
		Exclusive: map[string][]float64{perfdmf.TimeMetric: {10, 20}},
	}}
	seal := func(i int) string {
		t.Helper()
		info, err := c.OpenStream(ctx, "a", "e", fmt.Sprintf("t%d", i), 2, []string{perfdmf.TimeMetric})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Append(ctx, info.ID, 1, chunk); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Seal(ctx, info.ID); err != nil {
			t.Fatal(err)
		}
		return info.ID
	}
	var newest string
	for i := 0; i < DefaultSealedStreamRetention; i++ {
		newest = seal(i)
	}
	if err := c.AbortStream(ctx, newest); err != nil {
		t.Fatal(err)
	}
	seal(DefaultSealedStreamRetention)
	streams, err := c.Streams(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(streams) != DefaultSealedStreamRetention {
		t.Fatalf("%d sealed streams listed, want %d (the retention bound)", len(streams), DefaultSealedStreamRetention)
	}
	if streams[0].ID != "s1" {
		t.Fatalf("oldest listed stream = %s, want s1: it was evicted with room to spare", streams[0].ID)
	}
}

// TestStreamWindowOption checks the wire semantics of the window knob:
// 0 = server default, negative = cumulative, positive = that many chunks.
func TestStreamWindowOption(t *testing.T) {
	_, c := newService(t, Config{StreamWindow: 7})
	ctx := context.Background()
	metrics := []string{perfdmf.TimeMetric}

	def, err := c.OpenStream(ctx, "a", "e", "def", 2, metrics)
	if err != nil {
		t.Fatal(err)
	}
	if def.Window != 7 {
		t.Fatalf("default window = %d, want the daemon's 7", def.Window)
	}
	cum, err := c.OpenStream(ctx, "a", "e", "cum", 2, metrics, dmfclient.WithStreamWindow(0))
	if err != nil {
		t.Fatal(err)
	}
	if cum.Window != 0 {
		t.Fatalf("cumulative window = %d, want 0", cum.Window)
	}
	explicit, err := c.OpenStream(ctx, "a", "e", "exp", 2, metrics, dmfclient.WithStreamWindow(3))
	if err != nil {
		t.Fatal(err)
	}
	if explicit.Window != 3 {
		t.Fatalf("explicit window = %d, want 3", explicit.Window)
	}
}

// imbalanceChunk is a chunk whose windowed facts trip the "Load Imbalance"
// rule: inner_loop is imbalanced (one slow thread), outer_loop carries the
// complementary barrier wait (perfect negative correlation), and the
// callpath event links the two into a Nesting fact.
func imbalanceChunk() []dmfwire.ChunkEvent {
	tm := perfdmf.TimeMetric
	return []dmfwire.ChunkEvent{
		{
			Name:      "outer_loop",
			Calls:     []float64{1, 1, 1, 1},
			Inclusive: map[string][]float64{tm: {100, 100, 100, 100}},
			Exclusive: map[string][]float64{tm: {0, 30, 30, 30}},
		},
		{
			Name:      "inner_loop",
			Calls:     []float64{1, 1, 1, 1},
			Inclusive: map[string][]float64{tm: {40, 10, 10, 10}},
			Exclusive: map[string][]float64{tm: {40, 10, 10, 10}},
		},
		{
			Name:      "outer_loop" + perfdmf.CallpathSeparator + "inner_loop",
			Calls:     []float64{1, 1, 1, 1},
			Inclusive: map[string][]float64{tm: {40, 10, 10, 10}},
			Exclusive: map[string][]float64{tm: {40, 10, 10, 10}},
		},
	}
}

// openImbalanceStream opens a stream with the LoadBalanceRules standing
// rule set registered.
func openImbalanceStream(t *testing.T, c *dmfclient.Client, trial string) *dmfwire.StreamInfo {
	t.Helper()
	info, err := c.OpenStream(context.Background(), "app", "exp", trial, 4,
		[]string{perfdmf.TimeMetric}, dmfclient.WithStandingRules("LoadBalanceRules"))
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Rules) != 1 || info.Rules[0] != "LoadBalanceRules" {
		t.Fatalf("stream rules = %v", info.Rules)
	}
	return info
}

// TestStandingDiagnosisFiresAlert: appending imbalanced chunks to a stream
// with a standing rule set produces alerts carrying the rule's output.
func TestStandingDiagnosisFiresAlert(t *testing.T) {
	_, c := newService(t, Config{})
	ctx := context.Background()
	info := openImbalanceStream(t, c, "t1")

	ack, err := c.Append(ctx, info.ID, 1, imbalanceChunk())
	if err != nil {
		t.Fatal(err)
	}
	if ack.Alerts != 1 {
		t.Fatalf("alerts after chunk 1 = %d, want 1", ack.Alerts)
	}
	// The same imbalance persisting into the next chunk re-fires on the
	// fresh facts.
	ack, err = c.Append(ctx, info.ID, 2, imbalanceChunk())
	if err != nil {
		t.Fatal(err)
	}
	if ack.Alerts != 2 {
		t.Fatalf("alerts after chunk 2 = %d, want 2", ack.Alerts)
	}

	snap, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Counters["stream_alerts_total"]; got != 2 {
		t.Fatalf("stream_alerts_total = %d, want 2", got)
	}
}

// TestStandingDiagnosisMatchesBatch: the standing rule firing over a
// cumulative window must produce the same rule, output and recommendation
// as the batch load-balance diagnosis (LoadBalanceFacts, then
// processRules) of the trial the samples describe.
func TestStandingDiagnosisMatchesBatch(t *testing.T) {
	rule := diagnosis.RuleFiles()["LoadBalanceRules.prl"]
	diag, err := NewStandingDiagnosis(4, 0, rule)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	samples := []perfdmf.WindowSample{
		{Event: "outer_loop", Values: []float64{0, 30, 30, 30}},
		{Event: "inner_loop", Values: []float64{40, 10, 10, 10}},
		{Event: "outer_loop" + perfdmf.CallpathSeparator + "inner_loop"},
	}
	firings, err := diag.Append(ctx, samples)
	if err != nil {
		t.Fatal(err)
	}
	if len(firings) != 1 || firings[0].Rule != "Load Imbalance" {
		t.Fatalf("firings = %+v, want one Load Imbalance", firings)
	}
	if len(firings[0].Recommendations) != 1 ||
		!strings.Contains(firings[0].Recommendations[0].Text, "dynamic") {
		t.Fatalf("recommendations = %+v", firings[0].Recommendations)
	}
	if len(firings[0].Output) == 0 || !strings.Contains(firings[0].Output[0], "inner_loop") {
		t.Fatalf("output = %q", firings[0].Output)
	}

	// The trial: outer_loop encloses inner_loop, whose time the other
	// threads spend waiting in outer_loop.
	tm := perfdmf.TimeMetric
	tr := perfdmf.NewTrial("app", "exp", "t", 4)
	tr.AddMetric(tm)
	outer, inner := tr.EnsureEvent("outer_loop"), tr.EnsureEvent("inner_loop")
	path := tr.EnsureEvent("outer_loop" + perfdmf.CallpathSeparator + "inner_loop")
	for th, v := range samples[1].Values {
		outer.SetValue(tm, th, 40, samples[0].Values[th])
		inner.SetValue(tm, th, v, v)
		path.SetValue(tm, th, v, v)
	}
	s := core.NewSession(nil)
	s.SetOutput(io.Discard)
	if err := s.Repo.SaveContext(context.Background(), tr); err != nil {
		t.Fatal(err)
	}
	s.Interp.SetGlobal("rule", rule)
	if err := s.RunScript(`harness = RuleHarnessFromSource(rule)
LoadBalanceFacts(Utilities.getTrial("app", "exp", "t"), "TIME")
harness.processRules()
`); err != nil {
		t.Fatal(err)
	}
	batch := s.LastResult()
	if got, want := strings.Join(firings[0].Output, "\n"), strings.Join(batch.Output, "\n"); got != want {
		t.Fatalf("standing output\n%s\nbatch output\n%s", got, want)
	}
	if got, want := fmt.Sprintf("%q", firings[0].Recommendations), fmt.Sprintf("%q", batch.Recommendations); got != want {
		t.Fatalf("standing recommendations %s, batch %s", got, want)
	}
}
