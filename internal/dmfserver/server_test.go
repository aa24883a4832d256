package dmfserver

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"perfknow/internal/core"
	"perfknow/internal/diagnosis"
	"perfknow/internal/dmfclient"
	"perfknow/internal/dmfwire"
	"perfknow/internal/obs"
	"perfknow/internal/perfdmf"
	"perfknow/internal/vfs"
)

// newService builds a server over a file-backed repository and an httptest
// front end, returning the shared repository and a client.
func newService(t *testing.T, cfg Config, opts ...dmfclient.Option) (*perfdmf.Repository, *dmfclient.Client) {
	t.Helper()
	if cfg.Repo == nil {
		repo, err := perfdmf.OpenRepository(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Repo = repo
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c, err := dmfclient.New(ts.URL, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return cfg.Repo, c
}

// stallTrial builds a trial that trips the stalls-per-cycle rule.
func stallTrial(app, experiment, name string) *perfdmf.Trial {
	tr := perfdmf.NewTrial(app, experiment, name, 2)
	tr.AddMetric(perfdmf.TimeMetric)
	tr.AddMetric("BACK_END_BUBBLE_ALL")
	tr.AddMetric("CPU_CYCLES")
	main := tr.EnsureEvent("main")
	hot := tr.EnsureEvent("hot")
	for th := 0; th < 2; th++ {
		main.Calls[th] = 1
		hot.Calls[th] = 25
		main.SetValue(perfdmf.TimeMetric, th, 1000, 100)
		main.SetValue("BACK_END_BUBBLE_ALL", th, 100, 10)
		main.SetValue("CPU_CYCLES", th, 1500000, 150000)
		hot.SetValue(perfdmf.TimeMetric, th, 800, 800)
		hot.SetValue("BACK_END_BUBBLE_ALL", th, 700, 700)
		hot.SetValue("CPU_CYCLES", th, 1000, 1000)
	}
	return tr
}

// TestRemoteDiagnosisByteIdentical is the acceptance test: a profile
// uploaded over the wire and diagnosed server-side must produce exactly
// the bytes an in-process session prints for the same trial and script.
func TestRemoteDiagnosisByteIdentical(t *testing.T) {
	_, c := newService(t, Config{})

	if err := c.SaveContext(context.Background(), stallTrial("app", "exp", "t1")); err != nil {
		t.Fatal(err)
	}
	remote, err := c.DiagnoseContext(context.Background(), DiagnoseRequest{
		Script: "stalls_per_cycle",
		Args:   []string{"app", "exp", "t1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(remote.Stdout, "hot") {
		t.Fatalf("remote diagnosis found nothing:\n%s", remote.Stdout)
	}
	if len(remote.Recommendations) == 0 {
		t.Fatal("remote diagnosis produced no recommendations")
	}

	// In-process path: fresh repository with the same trial, same script.
	localRepo := perfdmf.NewRepository()
	if err := localRepo.Save(stallTrial("app", "exp", "t1")); err != nil {
		t.Fatal(err)
	}
	session := core.NewSession(localRepo)
	var buf bytes.Buffer
	session.SetOutput(&buf)
	diagnosis.Install(session, "")
	diagnosis.SetArgs(session, []string{"app", "exp", "t1"})
	if err := session.RunScript(diagnosis.ScriptFiles()["stalls_per_cycle.pes"]); err != nil {
		t.Fatal(err)
	}

	if remote.Stdout != buf.String() {
		t.Fatalf("remote and in-process diagnosis diverge:\nremote:\n%q\nlocal:\n%q", remote.Stdout, buf.String())
	}
	local := session.LastResult()
	if len(remote.Recommendations) != len(local.Recommendations) {
		t.Fatalf("recommendation counts differ: %d remote, %d local",
			len(remote.Recommendations), len(local.Recommendations))
	}
	for i := range local.Recommendations {
		if remote.Recommendations[i] != local.Recommendations[i] {
			t.Fatalf("recommendation %d differs: %+v vs %+v",
				i, remote.Recommendations[i], local.Recommendations[i])
		}
	}
}

func TestDiagnoseInlineSource(t *testing.T) {
	_, c := newService(t, Config{})
	if err := c.SaveContext(context.Background(), stallTrial("a", "e", "t")); err != nil {
		t.Fatal(err)
	}
	resp, err := c.DiagnoseContext(context.Background(), DiagnoseRequest{
		Source: `print("trials: " + str(len(Utilities.trials(args[0], args[1]))))`,
		Args:   []string{"a", "e"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stdout != "trials: 1\n" {
		t.Fatalf("stdout = %q", resp.Stdout)
	}
}

func TestDiagnoseValidation(t *testing.T) {
	_, c := newService(t, Config{})
	if _, err := c.DiagnoseContext(context.Background(), DiagnoseRequest{}); err == nil {
		t.Fatal("empty diagnose request must fail")
	}
	if _, err := c.DiagnoseContext(context.Background(), DiagnoseRequest{Script: "nope"}); err == nil {
		t.Fatal("unknown script must fail")
	}
	if _, err := c.DiagnoseContext(context.Background(), DiagnoseRequest{Script: "load_balance", Source: "x = 1"}); err == nil {
		t.Fatal("script+source together must fail")
	}
}

// TestDiagnoseNegativeCountIsAnError: an inline script asking a trial for
// its top -1 events gets a 400 naming the argument, and the daemon answers
// the next request. Unchecked, the count reached a slice allocation and the
// panic dropped the connection.
func TestDiagnoseNegativeCountIsAnError(t *testing.T) {
	_, ts, c := durabilityService(t, t.TempDir(), vfs.OS{})
	if err := c.SaveContext(context.Background(), stallTrial("a", "e", "t")); err != nil {
		t.Fatal(err)
	}
	body := `{"source": "Utilities.getTrial(\"a\", \"e\", \"t\").topN(\"TIME\", -1)"}`
	resp, err := http.Post(ts.URL+"/api/v1/diagnose", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("diagnose: %v", err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	want := `n: want a non-negative integer, got -1`
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(got), want) {
		t.Fatalf("diagnose: %d %s, want 400 and %q", resp.StatusCode, got, want)
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after the rejected script: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}
}

// TestUploadFormats exercises the three upload paths and that each yields
// a browsable, fetchable trial.
func TestUploadFormats(t *testing.T) {
	_, c := newService(t, Config{})

	// Native JSON.
	if err := c.SaveContext(context.Background(), stallTrial("japp", "jexp", "jt")); err != nil {
		t.Fatal(err)
	}

	// TAU text: write locally, upload the file tree.
	tauDir := t.TempDir()
	tau := stallTrial("tapp", "texp", "tt")
	if err := perfdmf.WriteTAU(tauDir, tau); err != nil {
		t.Fatal(err)
	}
	sum, err := c.UploadTAUDir(tauDir, "tapp", "texp", "tt")
	if err != nil {
		t.Fatal(err)
	}
	if sum.Threads != 2 || sum.Events != 2 {
		t.Fatalf("TAU upload summary: %+v", sum)
	}

	// gprof flat profile.
	gprof := `Flat profile:

Each sample counts as 0.01 seconds.
  %   cumulative   self              self     total
 time   seconds   seconds    calls  ms/call  ms/call  name
 60.00      0.60     0.60     1200     0.50     0.75  compute_flux
 40.00      1.00     0.40                             main_loop
`
	gsum, err := c.UploadGprof(strings.NewReader(gprof), "gapp", "gexp", "gt")
	if err != nil {
		t.Fatal(err)
	}
	if gsum.Threads != 1 || gsum.Events != 2 {
		t.Fatalf("gprof upload summary: %+v", gsum)
	}

	apps, err := c.ListApplications()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(apps) != "[gapp japp tapp]" {
		t.Fatalf("applications = %v", apps)
	}
	got, err := c.GetTrialContext(context.Background(), "tapp", "texp", "tt")
	if err != nil {
		t.Fatal(err)
	}
	if got.Event("hot") == nil {
		t.Fatal("TAU round-trip lost events")
	}
}

func TestUploadRejectsBadInput(t *testing.T) {
	_, c := newService(t, Config{})
	if _, err := c.UploadGprof(strings.NewReader("not gprof"), "a", "e", "t"); err == nil {
		t.Fatal("garbage gprof must fail")
	}
	if _, err := c.UploadTAU(map[string]string{"../escape": "x"}, "a", "e", "t"); err == nil {
		t.Fatal("path traversal in TAU upload must fail")
	}
	if _, err := c.UploadTAU(map[string]string{}, "a", "e", ""); err == nil {
		t.Fatal("missing coordinates must fail")
	}
	bad := perfdmf.NewTrial("a", "e", "t", 1)
	bad.AddMetric(perfdmf.TimeMetric)
	bad.EnsureEvent("x").Calls = nil // invalid: wrong calls length
	if err := bad.Validate(); err == nil {
		t.Fatal("trial should be invalid")
	}
	if err := c.SaveContext(context.Background(), bad); err == nil {
		t.Fatal("invalid trial must be rejected")
	}
}

func TestBrowseAndDelete(t *testing.T) {
	_, c := newService(t, Config{})
	if err := c.SaveContext(context.Background(), stallTrial("my app", "exp one", "trial 1")); err != nil {
		t.Fatal(err)
	}
	if exps, err := c.ListExperiments("my app"); err != nil || len(exps) != 1 || exps[0] != "exp one" {
		t.Fatalf("experiments = %v, %v", exps, err)
	}
	if trials, err := c.ListTrials("my app", "exp one"); err != nil || len(trials) != 1 || trials[0] != "trial 1" {
		t.Fatalf("trials = %v, %v", trials, err)
	}
	if err := c.DeleteContext(context.Background(), "my app", "exp one", "trial 1"); err != nil {
		t.Fatal(err)
	}
	if apps, err := c.ListApplications(); err != nil || len(apps) != 0 {
		t.Fatalf("applications after delete = %v, %v", apps, err)
	}
	if _, err := c.GetTrialContext(context.Background(), "my app", "exp one", "trial 1"); err == nil {
		t.Fatal("deleted trial still fetchable")
	}
	if !strings.Contains(fmt.Sprint(c.DeleteContext(context.Background(), "my app", "exp one", "trial 1")), "<nil>") {
		t.Fatal("double delete should be idempotent")
	}
}

func TestAnalyzeOperations(t *testing.T) {
	_, c := newService(t, Config{})
	if err := c.SaveContext(context.Background(), stallTrial("a", "e", "t")); err != nil {
		t.Fatal(err)
	}

	stats, err := c.AnalyzeContext(context.Background(), AnalyzeRequest{App: "a", Experiment: "e", Trial: "t", Op: "stats", Metric: perfdmf.TimeMetric})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Stats) == 0 || stats.Stats[0].Event != "hot" {
		t.Fatalf("stats = %+v", stats.Stats)
	}

	derived, err := c.AnalyzeContext(context.Background(), AnalyzeRequest{
		App: "a", Experiment: "e", Trial: "t",
		Op: "derive", Lhs: "BACK_END_BUBBLE_ALL", Rhs: "CPU_CYCLES", Operator: "/",
	})
	if err != nil {
		t.Fatal(err)
	}
	if derived.Metric != "(BACK_END_BUBBLE_ALL / CPU_CYCLES)" || derived.Trial == nil {
		t.Fatalf("derive = %+v", derived)
	}
	if !derived.Trial.HasMetric(derived.Metric) {
		t.Fatal("derived trial lacks the derived metric")
	}

	clust, err := c.AnalyzeContext(context.Background(), AnalyzeRequest{App: "a", Experiment: "e", Trial: "t", Op: "cluster", Metric: perfdmf.TimeMetric, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if clust.Clustering == nil || clust.Clustering.K != 2 {
		t.Fatalf("cluster = %+v", clust)
	}

	top, err := c.AnalyzeContext(context.Background(), AnalyzeRequest{App: "a", Experiment: "e", Trial: "t", Op: "topn", Metric: perfdmf.TimeMetric, N: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(top.Events) != 1 {
		t.Fatalf("topn = %v", top.Events)
	}

	lb, err := c.AnalyzeContext(context.Background(), AnalyzeRequest{App: "a", Experiment: "e", Trial: "t", Op: "loadbalance", Metric: perfdmf.TimeMetric})
	if err != nil {
		t.Fatal(err)
	}
	if len(lb.LoadBalance) == 0 {
		t.Fatal("loadbalance empty")
	}

	if _, err := c.AnalyzeContext(context.Background(), AnalyzeRequest{App: "a", Experiment: "e", Trial: "t", Op: "nope"}); err == nil {
		t.Fatal("unknown op must fail")
	}
	if _, err := c.AnalyzeContext(context.Background(), AnalyzeRequest{App: "missing", Experiment: "e", Trial: "t", Op: "stats"}); err == nil {
		t.Fatal("missing trial must fail")
	}
}

func TestHealthAndMetrics(t *testing.T) {
	_, c := newService(t, Config{Jobs: 3})
	if err := c.Health(); err != nil {
		t.Fatal(err)
	}
	if err := c.SaveContext(context.Background(), stallTrial("a", "e", "t")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetTrialContext(context.Background(), "a", "e", "t"); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if snap.SchemaVersion != dmfwire.MetricsSchemaVersion || snap.Service != "perfdmfd" {
		t.Fatalf("schema = %d service = %q", snap.SchemaVersion, snap.Service)
	}
	if got := snap.Gauges["repository_trials"]; got != 1 {
		t.Fatalf("repository_trials = %v (gauges %+v)", got, snap.Gauges)
	}
	if got := snap.Gauges["repository_applications"]; got != 1 {
		t.Fatalf("repository_applications = %v", got)
	}
	if got := snap.Gauges["analysis_slots_cap"]; got != 3 {
		t.Fatalf("analysis_slots_cap = %v", got)
	}
	// The client fetched via the resource route; its variable segments must
	// fold back to the {placeholder} template — per-trial names must never
	// become metric labels.
	const trialRoute = "GET /api/v1/apps/{app}/experiments/{exp}/trials/{trial}"
	key := obs.Key("http_requests_total", "route", trialRoute)
	if got := snap.Counters[key]; got != 1 {
		t.Fatalf("%s = %d (counters %+v)", key, got, snap.Counters)
	}
	if got := snap.Counters[obs.Key("http_request_errors_total", "route", trialRoute)]; got != 0 {
		t.Fatalf("trial route errors = %d", got)
	}
	h, ok := snap.Histograms[obs.Key("http_request_duration_ms", "route", trialRoute)]
	if !ok || h.Count != 1 || h.Max < 0 {
		t.Fatalf("trial route duration histogram = %+v", h)
	}
	for k := range snap.Counters {
		if strings.Contains(k, "/apps/a/") || strings.Contains(k, "/trials/t") {
			t.Fatalf("raw resource id leaked into a metric label: %s", k)
		}
	}
}

// A client probing paths no route serves must not grow the metric label
// set: every unmatched request of one method shares a single label.
func TestUnmatchedPathsShareOneRouteLabel(t *testing.T) {
	_, c := newService(t, Config{})
	routeLabels := func() map[string]int64 {
		snap, err := c.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		labels := map[string]int64{}
		for k, n := range snap.Counters {
			if strings.HasPrefix(k, "http_requests_total{") {
				labels[k] = n
			}
		}
		return labels
	}
	before := routeLabels()
	for i := 0; i < 100; i++ {
		resp, err := http.Get(fmt.Sprintf("%s/api/v1/nowhere/%d", c.BaseURL(), i))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown path %d: HTTP %d", i, resp.StatusCode)
		}
	}
	after := routeLabels()
	unmatched := obs.Key("http_requests_total", "route", "GET unmatched")
	for k := range before {
		delete(after, k)
	}
	// The first scrape's own route is counted only after it is answered.
	delete(after, obs.Key("http_requests_total", "route", "GET /api/v1/metrics"))
	if len(after) != 1 || after[unmatched] != 100 {
		t.Fatalf("100 unknown paths added labels %v, want only %s = 100", after, unmatched)
	}
}

func TestMaxBodyEnforced(t *testing.T) {
	_, c := newService(t, Config{MaxBodyBytes: 512})
	big := stallTrial("a", "e", "t")
	for i := 0; i < 50; i++ {
		e := big.EnsureEvent(fmt.Sprintf("event_%d_with_a_rather_long_name", i))
		for th := 0; th < 2; th++ {
			e.SetValue(perfdmf.TimeMetric, th, 1, 1)
		}
	}
	err := c.SaveContext(context.Background(), big)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized upload: %v", err)
	}
}

// TestBusyServerSheds verifies the limiter back-pressure path: with every
// analysis slot held, a gated request is shed with 429 + Retry-After after
// the short admission wait instead of queueing until the request deadline.
func TestBusyServerSheds(t *testing.T) {
	repo := perfdmf.NewRepository()
	srv, err := New(Config{
		Repo:           repo,
		Jobs:           1,
		RequestTimeout: 100 * time.Millisecond,
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Hold the only slot.
	if err := srv.slots.acquire(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	defer srv.slots.release()

	resp, err := http.Post(ts.URL+"/api/v1/diagnose", "application/json",
		strings.NewReader(`{"script":"load_balance","args":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("shed response missing Retry-After header")
	}
}

// TestRunawayScriptCancelled is the regression test for the limiter-
// exhaustion hole: an inline `while true` diagnosis script must be cut off
// at the request deadline with 504, releasing its limiter slot so later
// requests still run.
func TestRunawayScriptCancelled(t *testing.T) {
	repo := perfdmf.NewRepository()
	if err := repo.Save(stallTrial("a", "e", "t")); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Repo:           repo,
		Jobs:           1,
		RequestTimeout: 150 * time.Millisecond,
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/api/v1/diagnose", "application/json",
		strings.NewReader(`{"source":"while true { x = 1 }"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("runaway script status = %d, want 504", resp.StatusCode)
	}
	if n := len(srv.slots.sem); n != 0 {
		t.Fatalf("limiter slots still held after timeout: %d", n)
	}

	// The single slot must be usable again: a normal diagnosis succeeds.
	c, err := dmfclient.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.DiagnoseContext(context.Background(), DiagnoseRequest{Script: "stalls_per_cycle", Args: []string{"a", "e", "t"}}); err != nil {
		t.Fatalf("slot not released, follow-up diagnosis failed: %v", err)
	}
}

// TestScriptStepBudget: the statement budget stops a hot loop even without
// waiting out the request timeout.
func TestScriptStepBudget(t *testing.T) {
	_, c := newService(t, Config{MaxScriptSteps: 100})
	_, err := c.DiagnoseContext(context.Background(), DiagnoseRequest{Source: "while true { x = 1 }"})
	if err == nil || !strings.Contains(err.Error(), "steps") {
		t.Fatalf("step budget not enforced: %v", err)
	}
}

// TestErrStatusSentinel: only the perfdmf.ErrNotFound sentinel maps to 404;
// an error that merely mentions "not found" in its text stays a 400.
func TestErrStatusSentinel(t *testing.T) {
	if got := errStatus(fmt.Errorf("rule file not found in bundle")); got != http.StatusBadRequest {
		t.Fatalf("substring error mapped to %d, want 400", got)
	}
	if got := errStatus(fmt.Errorf("trial %q: %w", "x", perfdmf.ErrNotFound)); got != http.StatusNotFound {
		t.Fatalf("sentinel error mapped to %d, want 404", got)
	}
	if got := errStatus(context.DeadlineExceeded); got != http.StatusGatewayTimeout {
		t.Fatalf("deadline error mapped to %d, want 504", got)
	}
}

// TestServerWritesNoAssets: a server on the built-in knowledge base reads
// it in place. Booting it and running a diagnosis leave the temporary
// directory as empty as they found it, before Close and after.
func TestServerWritesNoAssets(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	srv, err := New(Config{
		Repo:   perfdmf.NewRepository(),
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c, err := dmfclient.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SaveContext(context.Background(), stallTrial("a", "e", "t")); err != nil {
		t.Fatal(err)
	}
	resp, err := c.DiagnoseContext(context.Background(), DiagnoseRequest{Script: "stalls_per_cycle", Args: []string{"a", "e", "t"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Recommendations) == 0 {
		t.Fatal("diagnosis on the built-in knowledge base recommended nothing")
	}
	empty := func(when string) {
		left, err := os.ReadDir(tmp)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range left {
			t.Errorf("%s, the temporary directory holds %s", when, e.Name())
		}
	}
	empty("before Close") // a daemon killed with -9 never closes
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	empty("after Close")
}

// TestDiagnoseCannotReadOutsideKnowledgeBase: RuleHarness resolves names
// inside the rule source only. An absolute path or one climbing out with
// ".." is refused with a 400 that quotes nothing of the file it named
// (the rule parser would echo its first word, "secret"), whether the server
// reads the built-in knowledge base or a -rules dir.
func TestDiagnoseCannotReadOutsideKnowledgeBase(t *testing.T) {
	outside := t.TempDir()
	secret := filepath.Join(outside, "x.prl")
	if err := os.WriteFile(secret, []byte("secret-token\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	rulesDir := filepath.Join(outside, "rules")
	if err := os.Mkdir(rulesDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ rulesDir, name string }{
		{"", secret},
		{rulesDir, secret},
		{rulesDir, "../x.prl"},
	} {
		srv, err := New(Config{Repo: perfdmf.NewRepository(), RulesDir: tc.rulesDir, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		body, _ := json.Marshal(DiagnoseRequest{Source: fmt.Sprintf("RuleHarness(%q)", tc.name)})
		resp, err := http.Post(ts.URL+"/api/v1/diagnose", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || strings.Contains(string(got), "secret") {
			t.Errorf("rules %q, RuleHarness(%q): %d %s, want 400 without the file's content", tc.rulesDir, tc.name, resp.StatusCode, got)
		}
	}
}

// TestDiagnoseCannotWrite: a script run by a diagnose request reads the
// daemon's trials and writes none. Saving a trial from it is a 403 naming
// the refusal, through the client too, and the stored file keeps its bytes;
// the same script in a perfexplorer session, over its own store, writes.
func TestDiagnoseCannotWrite(t *testing.T) {
	dir := t.TempDir()
	repo, err := perfdmf.OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Repo: repo, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c, err := dmfclient.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := c.SaveContext(ctx, stallTrial("a", "e", "t")); err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(dir, "a", "e", "t.json")
	before, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	const src = `Utilities.saveTrial(Utilities.getTrial("a", "e", "t").extract([]))`
	body, _ := json.Marshal(DiagnoseRequest{Source: src})
	resp, err := http.Post(ts.URL+"/api/v1/diagnose", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden || !strings.Contains(string(got), errDiagnoseReadOnly.Error()) {
		t.Errorf("saveTrial from a diagnose request: %d %s, want 403 naming the refusal", resp.StatusCode, got)
	}
	if _, err := c.DiagnoseContext(ctx, DiagnoseRequest{Source: src}); err == nil || !strings.Contains(err.Error(), errDiagnoseReadOnly.Error()) {
		t.Errorf("client Diagnose = %v, want the refusal", err)
	}
	if after, err := os.ReadFile(file); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("the stored trial changed under a refused write (err=%v)", err)
	}

	local := perfdmf.NewRepository()
	if err := local.Save(stallTrial("a", "e", "t")); err != nil {
		t.Fatal(err)
	}
	session := core.NewSession(local)
	session.SetOutput(io.Discard)
	if err := session.RunScript(src); err != nil {
		t.Fatalf("the same script in a local session: %v", err)
	}
	if tr, err := local.GetTrialContext(ctx, "a", "e", "t"); err != nil || len(tr.Events) != 0 {
		t.Fatalf("a local session's saveTrial did not write (err=%v)", err)
	}
}

// TestFailedNewLeavesNoAssets: a config New refuses leaves no temporary
// assets directory behind — there is no Server whose Close could remove it.
func TestFailedNewLeavesNoAssets(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	if _, err := New(Config{Repo: perfdmf.NewRepository(), Ring: &dmfwire.Ring{}}); err == nil {
		t.Fatal("New accepted an empty cluster ring")
	}
	left, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("failed New left %s in the temporary directory", e.Name())
	}
}

func TestNotFoundStatus(t *testing.T) {
	_, c := newService(t, Config{})
	_, err := c.GetTrialContext(context.Background(), "a", "b", "c")
	if err == nil || !strings.Contains(err.Error(), "HTTP 404") {
		t.Fatalf("missing trial error = %v", err)
	}
}

// TestConcurrentClients is the acceptance race test: many goroutines
// upload, list, fetch, analyze and diagnose against one server at once.
// Run under -race in CI.
func TestConcurrentClients(t *testing.T) {
	_, c := newService(t, Config{Jobs: 4})
	if err := c.SaveContext(context.Background(), stallTrial("shared", "exp", "base")); err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const iters = 5
	var wg sync.WaitGroup
	errc := make(chan error, workers*iters*2)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				name := fmt.Sprintf("t_%d_%d", w, i)
				if err := c.SaveContext(context.Background(), stallTrial("shared", "exp", name)); err != nil {
					errc <- fmt.Errorf("save %s: %w", name, err)
					return
				}
				if _, err := c.GetTrialContext(context.Background(), "shared", "exp", name); err != nil {
					errc <- fmt.Errorf("get %s: %w", name, err)
					return
				}
				if trials, err := c.ListTrials("shared", "exp"); err != nil || len(trials) == 0 {
					errc <- fmt.Errorf("list: %v (%d)", err, len(trials))
					return
				}
				if _, err := c.AnalyzeContext(context.Background(), AnalyzeRequest{
					App: "shared", Experiment: "exp", Trial: name,
					Op: "stats", Metric: perfdmf.TimeMetric,
				}); err != nil {
					errc <- fmt.Errorf("analyze %s: %w", name, err)
					return
				}
				if _, err := c.DiagnoseContext(context.Background(), DiagnoseRequest{
					Script: "stalls_per_cycle",
					Args:   []string{"shared", "exp", name},
				}); err != nil {
					errc <- fmt.Errorf("diagnose %s: %w", name, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	trials, err := c.ListTrials("shared", "exp")
	if err != nil {
		t.Fatal(err)
	}
	if want := workers*iters + 1; len(trials) != want {
		t.Fatalf("trials = %d, want %d", len(trials), want)
	}
}

// TestGracefulShutdownDrains starts the hardened http.Server, issues a
// slow-ish request, and shuts down concurrently: the in-flight request
// must complete.
func TestGracefulShutdownDrains(t *testing.T) {
	repo := perfdmf.NewRepository()
	if err := repo.Save(stallTrial("a", "e", "t")); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Repo: repo, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	httpSrv := srv.HTTPServer("127.0.0.1:0")
	ln, err := listen(httpSrv.Addr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()

	c, err := dmfclient.New("http://" + ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	resc := make(chan error, 1)
	go func() {
		_, err := c.DiagnoseContext(context.Background(), DiagnoseRequest{Script: "stalls_per_cycle", Args: []string{"a", "e", "t"}})
		resc <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the request get in flight
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-resc; err != nil {
		t.Fatalf("in-flight request failed during drain: %v", err)
	}
	if err := <-done; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v", err)
	}
}

// listen opens a TCP listener for tests.
func listen(addr string) (net.Listener, error) { return net.Listen("tcp", addr) }
