package dmfserver

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"perfknow/internal/dmfclient"
	"perfknow/internal/perfdmf"
	"perfknow/internal/vfs"
)

// durabilityService builds a server over a repository rooted at root and
// backed by the given filesystem, returning the raw httptest server (for
// header-level checks) alongside the repository and a client.
func durabilityService(t *testing.T, root string, fsys vfs.FS) (*perfdmf.Repository, *httptest.Server, *dmfclient.Client) {
	t.Helper()
	repo, err := perfdmf.OpenRepositoryFS(root, fsys)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
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
	return repo, ts, c
}

func flatTrial(app, exp, name string) *perfdmf.Trial {
	tr := perfdmf.NewTrial(app, exp, name, 1)
	tr.AddMetric(perfdmf.TimeMetric)
	ev := tr.EnsureEvent("main")
	ev.SetValue(perfdmf.TimeMetric, 0, 10, 10)
	return tr
}

// TestFsckEndpoint proves the full quarantine story over the wire: a
// corrupted trial file shows up in GET /api/v1/fsck, the damaged trial
// reads as 500 while its sibling stays servable, and the store counters
// appear in /api/v1/metrics.
func TestFsckEndpoint(t *testing.T) {
	// Seed the store with a separate repository instance, so the serving
	// repository starts with a cold cache — the restart scenario in which
	// on-disk corruption actually bites.
	root := t.TempDir()
	seed, err := perfdmf.OpenRepository(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Save(flatTrial("app", "exp", "good")); err != nil {
		t.Fatal(err)
	}
	if err := seed.Save(flatTrial("app", "exp", "bad")); err != nil {
		t.Fatal(err)
	}
	_, ts, c := durabilityService(t, root, vfs.OS{})

	rep, err := c.FsckContext(context.Background())
	if err != nil {
		t.Fatalf("fsck on clean store: %v", err)
	}
	if rep.Trials != 2 || len(rep.Quarantined) != 0 || !rep.Clean() {
		t.Fatalf("clean-store fsck = %+v", rep)
	}

	// Corrupt "bad" on disk, behind the repository's back.
	var badPath string
	err = filepath.Walk(root, func(p string, info os.FileInfo, err error) error {
		if err == nil && strings.HasSuffix(p, ".json") && strings.Contains(p, "bad") {
			badPath = p
		}
		return err
	})
	if err != nil || badPath == "" {
		t.Fatalf("trial file for %q not found under %s (err=%v)", "bad", root, err)
	}
	data, err := os.ReadFile(badPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(badPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err = c.FsckContext(context.Background())
	if err != nil {
		t.Fatalf("fsck on damaged store: %v", err)
	}
	if rep.Trials != 1 || len(rep.Quarantined) != 1 || rep.Clean() {
		t.Fatalf("damaged-store fsck = %+v", rep)
	}

	// The damaged trial is a 500 wrapping ErrCorrupt; the sibling still reads.
	resp, err := http.Get(ts.URL + "/api/v1/apps/app/experiments/exp/trials/bad")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// The fsck scan above already quarantined the file, so the read is a
	// clean 404 — never a 200 serving damaged bytes.
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("corrupt trial GET = %d, want 404", resp.StatusCode)
	}
	if _, err := c.GetTrialContext(context.Background(), "app", "exp", "good"); err != nil {
		t.Fatalf("sibling trial unreadable beside corrupt one: %v", err)
	}

	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Counters["store_quarantined"] < 1 {
		t.Fatalf("store_quarantined = %d, want >= 1", m.Counters["store_quarantined"])
	}
	if got, ok := m.Gauges["store_readonly"]; !ok || got != 0 {
		t.Fatalf("store_readonly gauge = %v (present=%v), want 0", got, ok)
	}
}

// TestReadOnlyDegradedService proves the degraded-mode contract over HTTP:
// writes 503 with Retry-After, reads still work, healthz flips to
// degraded, metrics expose the gauge, and fsck clears the mode once the
// volume accepts writes again.
func TestReadOnlyDegradedService(t *testing.T) {
	f := vfs.NewFaulty(vfs.OS{})
	repo, ts, c := durabilityService(t, t.TempDir(), f)
	if err := repo.Save(flatTrial("app", "exp", "t1")); err != nil {
		t.Fatal(err)
	}

	// Fill the disk: every write fails with ENOSPC until cleared.
	f.Inject(vfs.Fault{Op: vfs.OpWriteFile, Err: syscall.ENOSPC})
	for i := 0; i < 2; i++ {
		if err := repo.Save(flatTrial("app", "exp", "t2")); err == nil {
			t.Fatal("save on full volume succeeded")
		}
	}
	if !repo.ReadOnly() {
		t.Fatal("repository not read-only after persistent ENOSPC")
	}

	// Uploads are rejected with 503 + Retry-After.
	body, _ := json.Marshal(flatTrial("app", "exp", "t3"))
	resp, err := http.Post(ts.URL+"/api/v1/trials", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("upload during read-only mode = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 for read-only store carries no Retry-After")
	}

	// Reads keep working; readiness reports the degradation.
	if _, err := c.GetTrialContext(context.Background(), "app", "exp", "t1"); err != nil {
		t.Fatalf("read during read-only mode: %v", err)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status   string `json:"status"`
		ReadOnly bool   `json:"read_only"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || health.Status != "degraded" || !health.ReadOnly {
		t.Fatalf("healthz during read-only mode = %d %+v, want 503 degraded", resp.StatusCode, health)
	}

	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Gauges["store_readonly"] != 1 {
		t.Fatalf("store_readonly gauge = %v, want 1", m.Gauges["store_readonly"])
	}

	// Free the space; fsck's write probe clears the mode end to end.
	f.Clear()
	rep, err := c.FsckContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReadOnly {
		t.Fatalf("fsck did not clear read-only mode: %+v", rep)
	}
	if err := c.SaveContext(context.Background(), flatTrial("app", "exp", "t4")); err != nil {
		t.Fatalf("save after recovery: %v", err)
	}
	if err := c.Health(); err != nil {
		t.Fatalf("healthz after recovery: %v", err)
	}
}

// TestErrStatusDurability pins the sentinel → status mapping.
func TestErrStatusDurability(t *testing.T) {
	if got := errStatus(perfdmf.ErrReadOnly); got != http.StatusServiceUnavailable {
		t.Fatalf("errStatus(ErrReadOnly) = %d, want 503", got)
	}
	if got := errStatus(perfdmf.ErrCorrupt); got != http.StatusInternalServerError {
		t.Fatalf("errStatus(ErrCorrupt) = %d, want 500", got)
	}
	wrapped := errors.Join(errors.New("save trial"), perfdmf.ErrReadOnly)
	if got := errStatus(wrapped); got != http.StatusServiceUnavailable {
		t.Fatalf("errStatus(wrapped ErrReadOnly) = %d, want 503", got)
	}
}
