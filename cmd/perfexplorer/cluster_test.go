package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"perfknow/internal/cluster"
	"perfknow/internal/dmfserver"
	"perfknow/internal/dmfwire"
	"perfknow/internal/perfdmf"
)

// handlerHolder lets an httptest server start before its real handler
// exists: cluster peers must know every peer's URL, and the URLs are only
// assigned when the test servers come up.
type handlerHolder struct{ h atomic.Value }

func (hh *handlerHolder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	hh.h.Load().(http.Handler).ServeHTTP(w, r)
}

// startCluster boots n perfdmfd services that all serve the same ring
// descriptor over their httptest URLs, returning the comma-joined peer
// list for the -cluster flag.
func startCluster(t *testing.T, n int) string {
	t.Helper()
	holders := make([]*handlerHolder, n)
	urls := make([]string, n)
	for i := range holders {
		holders[i] = &handlerHolder{}
		ts := httptest.NewServer(holders[i])
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	ring := dmfwire.Ring{Epoch: 1, Replicas: 2, VNodes: 64, Seed: 0, Peers: urls}
	for i := range holders {
		repo, err := perfdmf.OpenRepository(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		r := ring
		srv, err := dmfserver.New(dmfserver.Config{
			Repo:   repo,
			Ring:   &r,
			Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		holders[i].h.Store(srv.Handler())
	}
	return strings.Join(urls, ",")
}

// writeTrialFile marshals the stall-metrics trial to a JSON file for
// -upload.
func writeTrialFile(t *testing.T, app, exp, name string) string {
	t.Helper()
	tr := perfdmf.NewTrial(app, exp, name, 2)
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
	data, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestClusterUploadGetListRebalance drives the operational loop end to
// end: upload through the routing layer, read it back, see it in the
// union listing, and have a repair pass — run here as the gossip leader runs
// it — find nothing to move.
func TestClusterUploadGetListRebalance(t *testing.T) {
	peers := startCluster(t, 3)
	trialFile := writeTrialFile(t, "app", "exp", "t1")

	var out, errb bytes.Buffer
	if code := run([]string{"-cluster", peers, "-upload", trialFile}, &out, &errb); code != 0 {
		t.Fatalf("upload exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "uploaded app/exp/t1") {
		t.Fatalf("upload output: %s", out.String())
	}

	out.Reset()
	if code := run([]string{"-cluster", peers, "-get", "app/exp/t1"}, &out, &errb); code != 0 {
		t.Fatalf("get exit %d: %s", code, errb.String())
	}
	var got perfdmf.Trial
	if err := json.Unmarshal(out.Bytes(), &got); err != nil {
		t.Fatalf("-get output is not a trial: %v\n%s", err, out.String())
	}
	if got.Name != "t1" || got.Threads != 2 {
		t.Fatalf("-get returned name=%q threads=%d", got.Name, got.Threads)
	}

	out.Reset()
	if code := run([]string{"-cluster", peers, "-list"}, &out, &errb); code != 0 {
		t.Fatalf("list exit %d: %s", code, errb.String())
	}
	for _, want := range []string{"app", "exp", "t1"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("cluster listing missing %q: %s", want, out.String())
		}
	}

	store, err := cluster.Dial(dmfwire.Ring{Epoch: 1, Replicas: 2, VNodes: 64, Peers: strings.Split(peers, ",")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := store.Rebalance(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.PeersScanned != 3 || rep.Trials != 1 || rep.Copied != 0 || rep.Removed != 0 || !rep.Clean() {
		t.Fatalf("rebalance report: %+v", rep)
	}
	// VerifyRing ran against real daemons: all three confirmed.
	if !strings.Contains(errb.String(), "3 peer(s) confirmed the ring") {
		t.Fatalf("ring verification note missing: %s", errb.String())
	}
}

// TestClusterScriptMatchesLocal: the same diagnosis script, the same
// trial — routed through a 3-node cluster and run against a local
// directory — must print identical analysis.
func TestClusterScriptMatchesLocal(t *testing.T) {
	peers := startCluster(t, 3)
	trialFile := writeTrialFile(t, "app", "exp", "t1")
	assets := t.TempDir()
	var out, errb bytes.Buffer
	if code := run([]string{"-write-assets", assets}, &out, &errb); code != 0 {
		t.Fatal(errb.String())
	}
	if code := run([]string{"-cluster", peers, "-upload", trialFile}, &out, &errb); code != 0 {
		t.Fatalf("upload: %s", errb.String())
	}
	script := filepath.Join(assets, "scripts", "stalls_per_cycle.pes")
	rules := filepath.Join(assets, "rules")

	var clusterOut bytes.Buffer
	if code := run([]string{"-cluster", peers, "-rules", rules, "-script", script,
		"app", "exp", "t1"}, &clusterOut, &errb); code != 0 {
		t.Fatalf("cluster run exit %d: %s", code, errb.String())
	}

	var localOut bytes.Buffer
	if code := run([]string{"-repo", seedRepo(t), "-rules", rules, "-script", script,
		"app", "exp", "t1"}, &localOut, &errb); code != 0 {
		t.Fatalf("local run exit %d: %s", code, errb.String())
	}
	if clusterOut.String() != localOut.String() {
		t.Fatalf("cluster diagnosis diverged from local:\n--- cluster ---\n%s\n--- local ---\n%s",
			clusterOut.String(), localOut.String())
	}
}

// TestRetiredFlagsAreUsageErrors: the flags that selected ring version 1 and
// the operator repair pass are gone, not ignored.
func TestRetiredFlagsAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"-rebalance"}, {"-ring-version", "2"}, {"-ring-version=1"}} {
		var out, errb bytes.Buffer
		if code := run(append([]string{"-repo", t.TempDir(), "-list"}, args...), &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2: %s", args, code, errb.String())
		}
	}
}

// TestClusterEpochMismatchRefused: a client configured with the wrong
// epoch must refuse to route rather than place data inconsistently.
func TestClusterEpochMismatchRefused(t *testing.T) {
	peers := startCluster(t, 3)
	var out, errb bytes.Buffer
	if code := run([]string{"-cluster", peers, "-ring-epoch", "9", "-list"}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "disagrees on the ring") {
		t.Fatalf("stderr missing the mismatch explanation: %s", errb.String())
	}
}
