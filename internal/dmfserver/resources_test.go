package dmfserver

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"perfknow/internal/dmfclient"
	"perfknow/internal/perfdmf"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// rawService builds a service and returns both the raw httptest server (for
// header-level assertions) and a typed client.
func rawService(t *testing.T) (*httptest.Server, *dmfclient.Client) {
	t.Helper()
	repo, err := perfdmf.OpenRepository(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Repo: repo, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
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
	return ts, c
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestResourceTrialRouteGolden pins the resource route's exact response
// bytes with a golden file; the retired query-param trial route answers
// 404.
func TestResourceTrialRouteGolden(t *testing.T) {
	ts, c := rawService(t)
	if err := c.SaveContext(context.Background(), stallTrial("app", "exp", "t1")); err != nil {
		t.Fatal(err)
	}

	resResp, resBody := get(t, ts.URL+"/api/v1/apps/app/experiments/exp/trials/t1")
	if resResp.StatusCode != http.StatusOK {
		t.Fatalf("resource route status = %d", resResp.StatusCode)
	}
	if h := resResp.Header.Get("Deprecation"); h != "" {
		t.Fatalf("resource route is marked deprecated: %q", h)
	}

	golden := filepath.Join("testdata", "trial_get.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, resBody, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (rerun with -update to regenerate)", err)
	}
	if string(resBody) != string(want) {
		t.Fatalf("resource trial response drifted from golden:\ngot:\n%s\nwant:\n%s", resBody, want)
	}

	if resp, _ := get(t, ts.URL+"/api/v1/trial?app=app&experiment=exp&trial=t1"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("retired query-param route status = %d, want 404", resp.StatusCode)
	}
}

func TestResourceListings(t *testing.T) {
	ts, c := rawService(t)
	if err := c.SaveContext(context.Background(), stallTrial("app", "exp", "t1")); err != nil {
		t.Fatal(err)
	}
	if err := c.SaveContext(context.Background(), stallTrial("app", "exp", "t2")); err != nil {
		t.Fatal(err)
	}

	var apps struct {
		Applications []string `json:"applications"`
	}
	_, body := get(t, ts.URL+"/api/v1/apps")
	if err := json.Unmarshal(body, &apps); err != nil {
		t.Fatalf("%v in %s", err, body)
	}
	if len(apps.Applications) != 1 || apps.Applications[0] != "app" {
		t.Fatalf("apps = %+v", apps)
	}

	var exps struct {
		Experiments []string `json:"experiments"`
	}
	_, body = get(t, ts.URL+"/api/v1/apps/app/experiments")
	if err := json.Unmarshal(body, &exps); err != nil {
		t.Fatal(err)
	}
	if len(exps.Experiments) != 1 || exps.Experiments[0] != "exp" {
		t.Fatalf("experiments = %+v", exps)
	}

	var trials struct {
		Trials []string `json:"trials"`
	}
	_, body = get(t, ts.URL+"/api/v1/apps/app/experiments/exp/trials")
	if err := json.Unmarshal(body, &trials); err != nil {
		t.Fatal(err)
	}
	if len(trials.Trials) != 2 {
		t.Fatalf("trials = %+v", trials)
	}
}

// TestResourceTrialDelete exercises DELETE on the resource route; the
// retired query-param route answers 404 and deletes nothing.
func TestResourceTrialDelete(t *testing.T) {
	ts, c := rawService(t)
	if err := c.SaveContext(context.Background(), stallTrial("app", "exp", "t1")); err != nil {
		t.Fatal(err)
	}
	if err := c.SaveContext(context.Background(), stallTrial("app", "exp", "t2")); err != nil {
		t.Fatal(err)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/apps/app/experiments/exp/trials/t1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resource delete status = %d", resp.StatusCode)
	}
	if _, err := c.GetTrialContext(context.Background(), "app", "exp", "t1"); !errors.Is(err, perfdmf.ErrNotFound) {
		t.Fatalf("t1 still present: %v", err)
	}

	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/trial?app=app&experiment=exp&trial=t2", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("retired query-param delete status = %d, want 404", resp.StatusCode)
	}
	if _, err := c.GetTrialContext(context.Background(), "app", "exp", "t2"); err != nil {
		t.Fatalf("t2 deleted through a retired route: %v", err)
	}
}

// TestResourceRouteEscaping round-trips coordinates that need
// percent-escaping in a path (spaces, slashes) through the typed client's
// resource-route calls.
func TestResourceRouteEscaping(t *testing.T) {
	_, c := rawService(t)
	ctx := context.Background()
	tr := stallTrial("my app", "exp one", "trial/1")
	if err := c.SaveContext(context.Background(), tr); err != nil {
		t.Fatal(err)
	}
	got, err := c.GetTrialContext(ctx, "my app", "exp one", "trial/1")
	if err != nil {
		t.Fatal(err)
	}
	if got.App != "my app" || got.Name != "trial/1" {
		t.Fatalf("round-trip = %s/%s/%s", got.App, got.Experiment, got.Name)
	}
	if err := c.DeleteContext(ctx, "my app", "exp one", "trial/1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetTrialContext(ctx, "my app", "exp one", "trial/1"); !errors.Is(err, perfdmf.ErrNotFound) {
		t.Fatalf("deleted trial still present: %v", err)
	}
}
