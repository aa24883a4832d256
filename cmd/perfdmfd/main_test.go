package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"perfknow/internal/dmfclient"
	"perfknow/internal/perfdmf"
)

// startDaemon boots the real daemon on an ephemeral port and returns a
// client plus a function that terminates it via SIGTERM and waits for a
// clean exit.
func startDaemon(t *testing.T, extra ...string) (*dmfclient.Client, func() string) {
	t.Helper()
	repoDir := t.TempDir()
	addrFile := filepath.Join(t.TempDir(), "addr")
	args := append([]string{
		"-addr", "127.0.0.1:0",
		"-addr-file", addrFile,
		"-repo", repoDir,
		"-drain", "5s",
	}, extra...)

	var out, errb bytes.Buffer
	ready := make(chan string, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	code := -1
	go func() {
		defer wg.Done()
		code = run(args, &out, &errb, ready)
	}()

	var bound string
	select {
	case bound = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon did not start: %s", errb.String())
	}

	// -addr-file must agree with the bound address.
	data, err := os.ReadFile(addrFile)
	if err != nil {
		t.Fatalf("addr-file not written: %v", err)
	}
	if string(data) != bound {
		t.Fatalf("addr-file %q != bound %q", data, bound)
	}

	c, err := dmfclient.New("http://" + bound)
	if err != nil {
		t.Fatal(err)
	}
	stop := func() string {
		// The daemon traps SIGTERM via signal.NotifyContext, so signalling
		// our own process exercises the real graceful-shutdown path
		// without killing the test binary.
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if code != 0 {
			t.Fatalf("daemon exit code %d: %s", code, errb.String())
		}
		return out.String()
	}
	return c, stop
}

func TestDaemonEndToEnd(t *testing.T) {
	c, stop := startDaemon(t)

	if err := c.Health(); err != nil {
		t.Fatalf("healthz: %v", err)
	}

	tr := perfdmf.NewTrial("app", "exp", "t1", 2)
	tr.AddMetric(perfdmf.TimeMetric)
	e := tr.EnsureEvent("main")
	for th := 0; th < 2; th++ {
		e.Calls[th] = 1
		e.SetValue(perfdmf.TimeMetric, th, 100, 100)
	}
	if err := c.SaveContext(context.Background(), tr); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if apps, err := c.ListApplications(); err != nil || len(apps) != 1 || apps[0] != "app" {
		t.Fatalf("Applications = %v, %v", apps, err)
	}
	got, err := c.GetTrialContext(context.Background(), "app", "exp", "t1")
	if err != nil {
		t.Fatalf("GetTrial: %v", err)
	}
	if got.Threads != 2 || len(got.Events) != 1 {
		t.Fatalf("round-trip mangled trial: %+v", got)
	}

	snap, err := c.Metrics()
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if got := snap.Gauges["repository_trials"]; got != 1 {
		t.Fatalf("metrics report %v trials, want 1", got)
	}
	if got := snap.Counters["uploads_stored_total"]; got != 1 {
		t.Fatalf("uploads_stored_total = %d, want 1", got)
	}

	out := stop()
	if !strings.Contains(out, "perfdmfd stopped") {
		t.Fatalf("missing clean shutdown message: %q", out)
	}
}

// TestDaemonDebugListener: -debug-addr serves net/http/pprof on its own
// listener, separate from the API address.
func TestDaemonDebugListener(t *testing.T) {
	debugFile := filepath.Join(t.TempDir(), "debug-addr")
	c, stop := startDaemon(t, "-debug-addr", "127.0.0.1:0", "-debug-addr-file", debugFile)
	defer stop()

	if err := c.Health(); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	data, err := os.ReadFile(debugFile)
	if err != nil {
		t.Fatalf("debug-addr-file not written: %v", err)
	}
	resp, err := http.Get("http://" + string(data) + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatalf("pprof endpoint: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof status = %d", resp.StatusCode)
	}
	// The profiler must not leak onto the API address.
	resp2, err := http.Get(c.BaseURL() + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode == http.StatusOK {
		t.Fatal("pprof reachable on the API address")
	}
}

// TestDaemonFsck: `perfdmfd -fsck` verifies the repository offline,
// prints the JSON report, and exits 0 on a clean store / 1 on a damaged
// one — without ever opening a listener.
func TestDaemonFsck(t *testing.T) {
	repoDir := t.TempDir()
	repo, err := perfdmf.OpenRepository(repoDir)
	if err != nil {
		t.Fatal(err)
	}
	tr := perfdmf.NewTrial("app", "exp", "t1", 1)
	tr.AddMetric(perfdmf.TimeMetric)
	e := tr.EnsureEvent("main")
	e.Calls[0] = 1
	e.SetValue(perfdmf.TimeMetric, 0, 100, 100)
	if err := repo.Save(tr); err != nil {
		t.Fatal(err)
	}

	var out, errb bytes.Buffer
	if code := run([]string{"-repo", repoDir, "-fsck"}, &out, &errb, nil); code != 0 {
		t.Fatalf("fsck on clean store: exit %d, stderr %s", code, errb.String())
	}
	var rep perfdmf.FsckReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("fsck output is not a JSON report: %v\n%s", err, out.String())
	}
	if rep.Trials != 1 || !rep.Clean() {
		t.Fatalf("clean-store report = %+v", rep)
	}

	// Damage the trial file: the next fsck must quarantine it and exit 1.
	var trialPath string
	err = filepath.Walk(repoDir, func(p string, info os.FileInfo, err error) error {
		if err == nil && strings.HasSuffix(p, ".json") {
			trialPath = p
		}
		return err
	})
	if err != nil || trialPath == "" {
		t.Fatalf("trial file not found under %s (err=%v)", repoDir, err)
	}
	data, err := os.ReadFile(trialPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(trialPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	out.Reset()
	if code := run([]string{"-repo", repoDir, "-fsck"}, &out, &errb, nil); code != 1 {
		t.Fatalf("fsck on damaged store: exit %d, want 1", code)
	}
	rep = perfdmf.FsckReport{}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("fsck output is not a JSON report: %v\n%s", err, out.String())
	}
	if len(rep.Quarantined) != 1 || rep.Trials != 0 {
		t.Fatalf("damaged-store report = %+v", rep)
	}
}

// TestDaemonBadFlags: an unknown flag is a usage error, and so are the
// flags that selected ring version 1 and the static membership mode.
func TestDaemonBadFlags(t *testing.T) {
	for _, args := range [][]string{{"-no-such-flag"}, {"-ring-version", "2"}, {"-gossip=false"}, {"-gossip"}} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb, nil); code != 2 {
			t.Errorf("%v: exit = %d, want 2", args, code)
		}
	}
}

// TestDaemonClusterFlags: -peers turns the daemon into a gossiping cluster
// member that serves its ring at GET /api/v1/cluster and publishes the ring
// identity gauges; the peer list is canonicalized, so flag order does not
// matter.
func TestDaemonClusterFlags(t *testing.T) {
	c, stop := startDaemon(t,
		"-peers", "http://node-b:7360, http://node-a:7360",
		"-replicas", "2",
		"-ring-epoch", "5",
		"-vnodes", "32",
		"-ring-seed", "7",
	)
	defer stop()

	ring, err := c.ClusterRing(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ring.Epoch != 5 || ring.Replicas != 2 || ring.VNodes != 32 || ring.Seed != 7 {
		t.Fatalf("ring = %+v", ring)
	}
	want := []string{"http://node-a:7360", "http://node-b:7360"}
	if len(ring.Peers) != 2 || ring.Peers[0] != want[0] || ring.Peers[1] != want[1] {
		t.Fatalf("peers = %v, want %v (canonical order)", ring.Peers, want)
	}
	resp, err := http.Get(c.BaseURL() + "/api/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.HasPrefix(raw, []byte("%DMFRING2 ")) {
		t.Fatalf("GET /api/v1/cluster = %q, want a %%DMFRING2 descriptor", raw)
	}
	if gv, err := c.ClusterGossipView(context.Background()); err != nil || gv.Self != c.BaseURL() || len(gv.Peers) != 2 {
		t.Fatalf("GET /api/v1/cluster/gossip = %+v, %v", gv, err)
	}

	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Gauges["cluster_ring_epoch"] != 5 || m.Gauges["cluster_ring_peers"] != 2 {
		t.Fatalf("ring gauges missing from metrics: %v", m.Gauges)
	}
}

// TestDaemonStandaloneHasNoRing: without -peers the cluster endpoint
// answers 404 and no ring gauges are published.
func TestDaemonStandaloneHasNoRing(t *testing.T) {
	c, stop := startDaemon(t)
	defer stop()
	if _, err := c.ClusterRing(context.Background()); !errors.Is(err, perfdmf.ErrNotFound) {
		t.Fatalf("ClusterRing = %v, want ErrNotFound", err)
	}
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Gauges["cluster_ring_epoch"]; ok {
		t.Fatal("standalone daemon published ring gauges")
	}
}

// TestDaemonRejectsBadRing: an unsatisfiable descriptor (R > peers) must
// fail startup, not come up with broken placement.
func TestDaemonRejectsBadRing(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{
		"-addr", "127.0.0.1:0",
		"-repo", t.TempDir(),
		"-peers", "http://node-a:7360",
		"-replicas", "3",
	}, &out, &errb, nil)
	if code != 1 {
		t.Fatalf("exit %d, want 1: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "replicas") {
		t.Fatalf("stderr should explain the ring rejection: %s", errb.String())
	}
}
