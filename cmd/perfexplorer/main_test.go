package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"perfknow/internal/dmfclient"
	"perfknow/internal/dmfserver"
	"perfknow/internal/dmfwire"
	"perfknow/internal/perfdmf"
)

// seedRepo writes a repository with one trial exercising the stall metrics.
func seedRepo(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	repo, err := perfdmf.OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	tr := perfdmf.NewTrial("app", "exp", "t1", 2)
	tr.AddMetric(perfdmf.TimeMetric)
	tr.AddMetric("BACK_END_BUBBLE_ALL")
	tr.AddMetric("CPU_CYCLES")
	main := tr.EnsureEvent("main")
	hot := tr.EnsureEvent("hot")
	for th := 0; th < 2; th++ {
		main.SetValue(perfdmf.TimeMetric, th, 1000, 100)
		main.SetValue("BACK_END_BUBBLE_ALL", th, 100, 10)
		main.SetValue("CPU_CYCLES", th, 1500000, 150000)
		hot.SetValue(perfdmf.TimeMetric, th, 800, 800)
		hot.SetValue("BACK_END_BUBBLE_ALL", th, 700, 700)
		hot.SetValue("CPU_CYCLES", th, 1000, 1000)
	}
	if err := repo.Save(tr); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestWriteAssetsFlag(t *testing.T) {
	dir := t.TempDir()
	var out, errb bytes.Buffer
	if code := run([]string{"-write-assets", dir}, &out, &errb); code != 0 {
		t.Fatalf("exit: %s", errb.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "rules", "OpenUHRules.prl")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "scripts", "stalls_per_cycle.pes")); err != nil {
		t.Fatal(err)
	}
}

func TestListFlag(t *testing.T) {
	repo := seedRepo(t)
	var out, errb bytes.Buffer
	if code := run([]string{"-repo", repo, "-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit: %s", errb.String())
	}
	for _, want := range []string{"app", "exp", "t1"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("listing missing %q: %s", want, out.String())
		}
	}
}

func TestRunScriptEndToEnd(t *testing.T) {
	repo := seedRepo(t)
	assets := t.TempDir()
	var out, errb bytes.Buffer
	if code := run([]string{"-write-assets", assets}, &out, &errb); code != 0 {
		t.Fatal(errb.String())
	}
	out.Reset()
	code := run([]string{
		"-repo", repo,
		"-rules", filepath.Join(assets, "rules"),
		"-script", filepath.Join(assets, "scripts", "stalls_per_cycle.pes"),
		"app", "exp", "t1",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "hot") {
		t.Fatalf("diagnosis missing: %s", out.String())
	}
	if !strings.Contains(out.String(), "recommendation") {
		t.Fatalf("recommendations missing: %s", out.String())
	}
}

// TestRunOutsideRepositoryRoot: without -rules the rules come from the
// built-in knowledge base, so a bundled script runs from any directory.
func TestRunOutsideRepositoryRoot(t *testing.T) {
	repo := seedRepo(t)
	script, err := filepath.Abs(filepath.Join("..", "..", "assets", "scripts", "load_balance.pes"))
	if err != nil {
		t.Fatal(err)
	}
	t.Chdir(t.TempDir())
	var out, errb bytes.Buffer
	if code := run([]string{"-repo", repo, "-script", script, "app", "exp", "t1"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
}

func TestScriptRequired(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-repo", t.TempDir()}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestMissingScript(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-repo", t.TempDir(), "-script", "/does/not/exist.pes"}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
}

// startServer boots a perfdmfd service over an httptest server and seeds
// it with the stall-metrics trial, returning the base URL.
func startServer(t *testing.T) string {
	t.Helper()
	repo, err := perfdmf.OpenRepository(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := dmfserver.New(dmfserver.Config{
		Repo:   repo,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	c, err := dmfclient.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	tr := perfdmf.NewTrial("app", "exp", "t1", 2)
	tr.AddMetric(perfdmf.TimeMetric)
	tr.AddMetric("BACK_END_BUBBLE_ALL")
	tr.AddMetric("CPU_CYCLES")
	main := tr.EnsureEvent("main")
	hot := tr.EnsureEvent("hot")
	for th := 0; th < 2; th++ {
		main.SetValue(perfdmf.TimeMetric, th, 1000, 100)
		main.SetValue("BACK_END_BUBBLE_ALL", th, 100, 10)
		main.SetValue("CPU_CYCLES", th, 1500000, 150000)
		hot.SetValue(perfdmf.TimeMetric, th, 800, 800)
		hot.SetValue("BACK_END_BUBBLE_ALL", th, 700, 700)
		hot.SetValue("CPU_CYCLES", th, 1000, 1000)
	}
	if err := c.SaveContext(context.Background(), tr); err != nil {
		t.Fatal(err)
	}
	return ts.URL
}

func TestListAgainstServer(t *testing.T) {
	url := startServer(t)
	var out, errb bytes.Buffer
	if code := run([]string{"-server", url, "-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit: %s", errb.String())
	}
	for _, want := range []string{"app", "exp", "t1"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("listing missing %q: %s", want, out.String())
		}
	}
}

// The same script must produce the same diagnosis whether the repository
// is a local directory or a remote perfdmfd service.
func TestRunScriptAgainstServer(t *testing.T) {
	url := startServer(t)
	assets := t.TempDir()
	var out, errb bytes.Buffer
	if code := run([]string{"-write-assets", assets}, &out, &errb); code != 0 {
		t.Fatal(errb.String())
	}
	out.Reset()
	code := run([]string{
		"-server", url,
		"-rules", filepath.Join(assets, "rules"),
		"-script", filepath.Join(assets, "scripts", "stalls_per_cycle.pes"),
		"app", "exp", "t1",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "hot") || !strings.Contains(out.String(), "recommendation") {
		t.Fatalf("remote-script diagnosis incomplete: %s", out.String())
	}

	// Byte-identical to the local-repo run of the same script.
	localRepo := seedRepo(t)
	var localOut bytes.Buffer
	code = run([]string{
		"-repo", localRepo,
		"-rules", filepath.Join(assets, "rules"),
		"-script", filepath.Join(assets, "scripts", "stalls_per_cycle.pes"),
		"app", "exp", "t1",
	}, &localOut, &errb)
	if code != 0 {
		t.Fatalf("local exit %d: %s", code, errb.String())
	}
	if out.String() != localOut.String() {
		t.Fatalf("remote and local runs diverge:\nremote: %q\nlocal:  %q", out.String(), localOut.String())
	}
}

// TestTraceAgainstServer is the distributed-tracing acceptance test for
// the CLI: one -server -trace run must produce a single connected span
// tree containing client request spans, server handler spans, script
// statement spans and repository I/O spans.
func TestTraceAgainstServer(t *testing.T) {
	url := startServer(t)
	assets := t.TempDir()
	var out, errb bytes.Buffer
	if code := run([]string{"-write-assets", assets}, &out, &errb); code != 0 {
		t.Fatal(errb.String())
	}
	out.Reset()
	tracePath := filepath.Join(t.TempDir(), "out.json")
	code := run([]string{
		"-server", url,
		"-rules", filepath.Join(assets, "rules"),
		"-script", filepath.Join(assets, "scripts", "stalls_per_cycle.pes"),
		"-trace", tracePath,
		"app", "exp", "t1",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("trace file not written: %v", err)
	}
	var tf dmfwire.TraceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if len(tf.Traces) != 1 {
		t.Fatalf("trace file holds %d traces, want exactly 1", len(tf.Traces))
	}
	tr := tf.Traces[0]

	// One connected tree: exactly one root, every other span's parent
	// present in the same trace.
	ids := make(map[string]bool, len(tr.Spans))
	for _, sp := range tr.Spans {
		ids[sp.SpanID] = true
	}
	roots := 0
	for _, sp := range tr.Spans {
		if sp.ParentID == "" {
			roots++
			continue
		}
		if !ids[sp.ParentID] {
			t.Fatalf("span %q (%s) parent %s missing — tree is disconnected", sp.Name, sp.SpanID, sp.ParentID)
		}
	}
	if roots != 1 {
		t.Fatalf("trace has %d roots, want 1", roots)
	}

	// All four layers are present, across both services.
	want := map[string]bool{
		"perfexplorer.run":  false, // CLI root
		"dmfclient GET":     false, // client request spans
		"dmfserver GET":     false, // server handler spans
		"script.stmt":       false, // script statement spans
		"perfdmf.get_trial": false, // repository I/O spans
	}
	services := map[string]bool{}
	for _, sp := range tr.Spans {
		services[sp.Service] = true
		for prefix := range want {
			if strings.HasPrefix(sp.Name, prefix) {
				want[prefix] = true
			}
		}
	}
	for prefix, seen := range want {
		if !seen {
			t.Fatalf("trace is missing %q spans; got %d spans", prefix, len(tr.Spans))
		}
	}
	if !services["perfexplorer"] || !services["perfdmfd"] {
		t.Fatalf("trace spans only services %v, want both perfexplorer and perfdmfd", services)
	}
}

// TestTraceLocalRun: -trace also works without a server — the local run's
// statement, analysis and rule spans form one tree.
func TestTraceLocalRun(t *testing.T) {
	repo := seedRepo(t)
	assets := t.TempDir()
	var out, errb bytes.Buffer
	if code := run([]string{"-write-assets", assets}, &out, &errb); code != 0 {
		t.Fatal(errb.String())
	}
	tracePath := filepath.Join(t.TempDir(), "out.json")
	code := run([]string{
		"-repo", repo,
		"-rules", filepath.Join(assets, "rules"),
		"-script", filepath.Join(assets, "scripts", "stalls_per_cycle.pes"),
		"-trace", tracePath,
		"app", "exp", "t1",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	var tf dmfwire.TraceFile
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Traces) != 1 || len(tf.Traces[0].Spans) < 3 {
		t.Fatalf("local trace = %+v", tf)
	}
	seenStmt := false
	for _, sp := range tf.Traces[0].Spans {
		if strings.HasPrefix(sp.Name, "script.stmt") {
			seenStmt = true
		}
	}
	if !seenStmt {
		t.Fatal("local trace missing script statement spans")
	}
}

func TestServerUnreachable(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-server", "http://127.0.0.1:1", "-list"}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
}
