package dmfserver

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"

	"perfknow/internal/dmfwire"
	"perfknow/internal/obs"
	"perfknow/internal/perfdmf"
)

// do sends one raw request and returns its status and body.
func do(t *testing.T, method, url string, hdr map[string]string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestRoutesServed: a request built with Route.Path reaches the row's own
// handler for every row of the route table — the request is counted under
// the row's pattern, never as unmatched — and wildcard values holding '/',
// '%', a space and non-ASCII come back unchanged from r.PathValue.
func TestRoutesServed(t *testing.T) {
	ts, c := rawService(t)
	values := map[string]string{"app": "a/b", "exp": "50% c", "trial": "ü t", "id": "x/y %z ü"}
	if err := c.SaveContext(context.Background(), stallTrial(values["app"], values["exp"], values["trial"])); err != nil {
		t.Fatal(err)
	}
	wildcard := regexp.MustCompile(`\{(\w+)\}`)
	for _, rt := range dmfwire.Routes() {
		var args []string
		for _, m := range wildcard.FindAllStringSubmatch(rt.Pattern, -1) {
			args = append(args, values[m[1]])
		}
		var body []byte
		if rt.Method == http.MethodPost {
			body = []byte("{}")
		}
		status, resp := do(t, rt.Method, ts.URL+rt.Path(args...), nil, body)

		// What each handler echoes of its wildcards.
		listed := map[dmfwire.Route][2]string{
			dmfwire.ListAppExperiments:   {"experiments", values["exp"]},
			dmfwire.ListExperimentTrials: {"trials", values["trial"]},
		}
		if l, ok := listed[rt]; ok {
			var got map[string][]string
			if err := json.Unmarshal(resp, &got); err != nil || fmt.Sprint(got[l[0]]) != fmt.Sprint([]string{l[1]}) {
				t.Errorf("%s: HTTP %d %s, want %s [%s]", rt, status, resp, l[0], l[1])
			}
		}
		switch rt {
		case dmfwire.GetTrial:
			var got perfdmf.Trial
			if err := json.Unmarshal(resp, &got); err != nil || status != http.StatusOK {
				t.Fatalf("%s: HTTP %d %s", rt, status, resp)
			}
			if got.App != values["app"] || got.Experiment != values["exp"] || got.Name != values["trial"] {
				t.Errorf("%s answered trial %q/%q/%q", rt, got.App, got.Experiment, got.Name)
			}
		case dmfwire.DeleteTrial:
			if status != http.StatusOK {
				t.Errorf("%s: HTTP %d %s", rt, status, resp)
			}
		}
		if strings.Contains(rt.Pattern, "{id}") {
			var e apiError
			_ = json.Unmarshal(resp, &e)
			if want := fmt.Sprintf("%q", values["id"]); status != http.StatusNotFound || !strings.Contains(e.Error, want) {
				t.Errorf("%s: HTTP %d %s, want 404 naming %s", rt, status, resp, want)
			}
		}
	}
	if _, err := c.GetTrialContext(context.Background(), values["app"], values["exp"], values["trial"]); err == nil {
		t.Errorf("%s left the trial in place", dmfwire.DeleteTrial)
	}

	snap, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, rt := range dmfwire.Routes() {
		if snap.Counters[obs.Key("http_requests_total", "route", rt.String())] == 0 {
			t.Errorf("no request counted under %s", rt)
		}
	}
	for k, n := range snap.Counters {
		if strings.HasPrefix(k, "http_requests_total{") && strings.Contains(k, "unmatched") {
			t.Errorf("%s = %d", k, n)
		}
	}
}

// TestUploadRefusesEmptyCoordinate: a trial with an empty app, experiment
// or trial name could be stored but never reached again (a path segment
// cannot be empty), so every upload format answers 400, stores nothing and
// records nothing under the idempotency key.
func TestUploadRefusesEmptyCoordinate(t *testing.T) {
	ts, c := rawService(t)
	gprof := "Flat profile:\n\n  %   cumulative   self              self     total\n" +
		" time   seconds   seconds    calls  ms/call  ms/call  name\n" +
		" 60.00      0.60     0.60     1200     0.50     0.75  compute_flux\n"
	type upload struct {
		name, query, contentType string
		body                     []byte
	}
	var uploads []upload
	for _, tr := range []*perfdmf.Trial{stallTrial("", "exp", "t1"), stallTrial("app", "", "t1"), stallTrial("app", "exp", "")} {
		encoded, err := perfdmf.EncodeTrial(tr)
		if err != nil {
			t.Fatal(err)
		}
		coords := tr.App + "/" + tr.Experiment + "/" + tr.Name
		uploads = append(uploads,
			upload{"encoded " + coords, "", dmfwire.TrialContentType, encoded},
			upload{"json " + coords, "", "application/json", mustJSON(t, tr)},
			upload{"tau " + coords, "?format=tau", "application/json", mustJSON(t, dmfwire.TAUUpload{
				App: tr.App, Experiment: tr.Experiment, Trial: tr.Name, Files: map[string]string{}})},
			upload{"gprof " + coords, "?format=gprof&app=" + tr.App + "&experiment=" + tr.Experiment + "&trial=" + tr.Name,
				"text/plain", []byte(gprof)})
	}
	for i, up := range uploads {
		hdr := map[string]string{"Content-Type": up.contentType, dmfwire.HeaderIdempotencyKey: fmt.Sprint("key-", i)}
		status, body := do(t, http.MethodPost, ts.URL+dmfwire.UploadTrial.Path()+up.query, hdr, up.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d %s, want 400", up.name, status, body)
		}
	}
	if apps, err := c.ListApplications(); err != nil || len(apps) != 0 {
		t.Fatalf("refused uploads stored applications %v (%v)", apps, err)
	}

	// The refusals recorded nothing: a valid trial under a refused key is
	// stored, not answered with the refusal.
	valid, err := perfdmf.EncodeTrial(stallTrial("app", "exp", "t1"))
	if err != nil {
		t.Fatal(err)
	}
	hdr := map[string]string{"Content-Type": dmfwire.TrialContentType, dmfwire.HeaderIdempotencyKey: "key-0"}
	if status, body := do(t, http.MethodPost, ts.URL+dmfwire.UploadTrial.Path(), hdr, valid); status != http.StatusCreated {
		t.Fatalf("valid upload under a refused key: HTTP %d %s", status, body)
	}
	if exps, err := c.ListExperiments("app"); err != nil || fmt.Sprint(exps) != "[exp]" {
		t.Fatalf("experiments = %v (%v)", exps, err)
	}
}
