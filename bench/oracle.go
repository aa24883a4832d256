package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"perfknow/internal/analysis"
	"perfknow/internal/core"
	"perfknow/internal/diagnosis"
	"perfknow/internal/dmfserver"
	"perfknow/internal/dmfwire"
	"perfknow/internal/perfdmf"
)

// oracleResult is what the post-run checks found. Every check counts as
// one attempted op and every mismatch as one failed op.
type oracleResult struct {
	checked   int
	failed    int
	errs      []string
	diskRatio float64
	replicas  float64 // copies per stored trial (cluster_rw: 2.0)
}

func (o *oracleResult) check(ok bool, format string, args ...any) {
	o.checked++
	if ok {
		return
	}
	o.failed++
	if len(o.errs) < 20 {
		o.errs = append(o.errs, "oracle: "+fmt.Sprintf(format, args...))
	}
}

// oracle checks the run's outputs against in-process references. It runs
// after the last op has drained and reads the repositories through freshly
// opened perfdmf.Repository values on the same directories, so it sees
// what a restarted daemon would.
func (r *runner) oracle() *oracleResult {
	o := &oracleResult{}
	s := r.sys
	var fresh []*perfdmf.Repository
	var diskBytes, userBytes int64
	for _, n := range s.nodes {
		repo, err := perfdmf.OpenRepository(n.dir)
		if err != nil {
			o.check(false, "reopen %s: %v", n.dir, err)
			return o
		}
		fresh = append(fresh, repo)
		diskBytes += treeBytes(n.dir)
	}
	switch {
	case s.in.ks != nil:
		userBytes = r.checkKeys(o, fresh)
	case s.w.name == "diagnose_live":
		r.checkDiagnoses(o, fresh[0])
		r.checkAnalyses(o, fresh[0])
		r.checkAlerts(o)
		userBytes = storedUserBytes(o, fresh[0])
	case s.w.name == "study_pipeline":
		// The pipeline keeps its trials in memory; store the last
		// iteration's pair once, untimed, to state what they cost on disk.
		dir := filepath.Join(s.root, "study-repo")
		repo, err := perfdmf.OpenRepository(dir)
		if err != nil {
			o.check(false, "open %s: %v", dir, err)
			return o
		}
		for _, t := range s.lastStudy {
			if t == nil {
				o.check(false, "study: no iteration completed")
				return o
			}
			o.check(repo.Save(t) == nil, "study: save %s", t.Name)
		}
		diskBytes = treeBytes(dir)
		userBytes = storedUserBytes(o, repo)
	}
	if userBytes > 0 {
		o.diskRatio = float64(diskBytes) / float64(userBytes)
	}
	return o
}

// treeBytes sums the sizes of the files under dir.
func treeBytes(dir string) int64 {
	var total int64
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if e.IsDir() {
			total += treeBytes(filepath.Join(dir, e.Name()))
		} else if fi, err := e.Info(); err == nil {
			total += fi.Size()
		}
	}
	return total
}

// storedUserBytes sums the canonical JSON size of every trial in repo.
func storedUserBytes(o *oracleResult, repo *perfdmf.Repository) int64 {
	var total int64
	for _, app := range repo.Applications() {
		for _, exp := range repo.Experiments(app) {
			for _, name := range repo.Trials(app, exp) {
				t, err := repo.GetTrial(app, exp, name)
				if err != nil {
					o.check(false, "read back %s/%s/%s: %v", app, exp, name, err)
					continue
				}
				data, _ := json.Marshal(t)
				total += int64(len(data))
			}
		}
	}
	return total
}

// checkKeys reads every key of the keyspace back from every node. A key
// must be stored on exactly one node (two in the cluster), each copy must
// be a variant the key may hold given the acknowledged saves, and must
// equal that variant byte for byte as canonical JSON.
func (r *runner) checkKeys(o *oracleResult, fresh []*perfdmf.Repository) (userBytes int64) {
	ks := r.sys.in.ks
	wantCopies := 1
	if r.w.cluster {
		wantCopies = 2
	}
	copiesTotal := 0
	for k := 0; k < ks.keys; k++ {
		exp, name := ks.experiment(k), ks.trialName(k)
		copies := 0
		ok := true
		for _, repo := range fresh {
			got, err := repo.GetTrial(benchApp, exp, name)
			if errors.Is(err, perfdmf.ErrNotFound) {
				continue
			}
			if err != nil {
				ok = false
				o.errs = append(o.errs, fmt.Sprintf("oracle: read back %s: %v", name, err))
				continue
			}
			copies++
			v, known := ks.variantOf(got)
			if !known || r.sys.keys[k].cands&(1<<uint(v)) == 0 {
				ok = false
				o.errs = append(o.errs, fmt.Sprintf("oracle: %s holds variant %q, not an acknowledged write", name, got.Metadata["variant"]))
				continue
			}
			want, _ := json.Marshal(ks.trial(k, v))
			have, _ := json.Marshal(got)
			if !bytes.Equal(want, have) {
				ok = false
				o.errs = append(o.errs, fmt.Sprintf("oracle: %s differs from what was sent (variant %d)", name, v))
			}
			if copies == 1 {
				userBytes += int64(len(want))
			}
		}
		copiesTotal += copies
		o.check(ok && copies == wantCopies, "%s/%s: %d copies, want %d", exp, name, copies, wantCopies)
	}
	o.replicas = float64(copiesTotal) / float64(ks.keys)
	if len(o.errs) > 20 {
		o.errs = o.errs[:20]
	}
	return userBytes
}

// diagnoseInProcess is what cmd/perfexplorer does locally.
func diagnoseInProcess(repo perfdmf.Store, rulesDir string, c diagCase) (*dmfwire.DiagnoseResponse, error) {
	session := core.NewSession(repo)
	var buf strings.Builder
	session.SetOutput(&buf)
	diagnosis.Install(session, rulesDir)
	diagnosis.SetArgs(session, c.args)
	if err := session.RunScript(diagnosis.ScriptFiles()[c.script+".pes"]); err != nil {
		return nil, err
	}
	resp := &dmfwire.DiagnoseResponse{Stdout: buf.String()}
	if res := session.LastResult(); res != nil {
		resp.Output, resp.Recommendations = res.Output, res.Recommendations
	}
	return resp, nil
}

func sameJSON(a, b any) bool {
	x, err1 := json.Marshal(a)
	y, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(x, y)
}

func (r *runner) checkDiagnoses(o *oracleResult, repo *perfdmf.Repository) {
	s := r.sys
	for i, seen := range s.diagSeen {
		c := s.in.diag[i]
		want, err := diagnoseInProcess(repo, s.rulesDir, c)
		if err != nil {
			o.check(false, "diagnose %s %v in process: %v", c.script, c.args, err)
			continue
		}
		o.check(sameJSON(want, seen[0]) && sameJSON(want, seen[1]),
			"diagnose %s %v: remote response differs from the in-process run", c.script, c.args)
		o.check(want.Stdout != "", "diagnose %s %v printed nothing", c.script, c.args)
	}
}

// analyzeInProcess calls the analysis package the way the analyze route does.
func analyzeInProcess(repo *perfdmf.Repository, req dmfwire.AnalyzeRequest) (*dmfwire.AnalyzeResponse, error) {
	ctx := context.Background()
	t, err := repo.GetTrialContext(ctx, req.App, req.Experiment, req.Trial)
	if err != nil {
		return nil, err
	}
	var resp dmfwire.AnalyzeResponse
	switch req.Op {
	case "stats":
		resp.Stats = analysis.ExclusiveStatsCtx(ctx, t, req.Metric)
	case "topn":
		resp.Events = analysis.TopNCtx(ctx, t, req.Metric, req.N)
	case "loadbalance":
		resp.LoadBalance = analysis.LoadBalanceAnalysisCtx(ctx, t, req.Metric)
	case "cluster":
		resp.Clustering, err = analysis.KMeansCtx(ctx, t, req.Metric, req.K, 100)
	case "derive":
		var op analysis.Op
		if op, err = analysis.ParseOp(req.Operator); err == nil {
			resp.Trial, resp.Metric, err = analysis.DeriveMetricCtx(ctx, t, req.Lhs, req.Rhs, op)
		}
	default:
		err = fmt.Errorf("unknown analysis op %q", req.Op)
	}
	return &resp, err
}

func (r *runner) checkAnalyses(o *oracleResult, repo *perfdmf.Repository) {
	s := r.sys
	for i, seen := range s.anaSeen {
		req := s.in.ana[i]
		want, err := analyzeInProcess(repo, req)
		if err != nil {
			o.check(false, "analyze %s %s in process: %v", req.Op, req.Trial, err)
			continue
		}
		o.check(sameJSON(want, seen[0]) && sameJSON(want, seen[1]),
			"analyze %s %s: remote response differs from the in-process run", req.Op, req.Trial)
	}
}

// expectedAlerts runs one stream cycle through an in-process
// StandingDiagnosis, deriving window samples as the append route does.
func expectedAlerts(cycle [][]dmfwire.ChunkEvent) ([]dmfwire.StreamAlert, error) {
	diag, err := dmfserver.NewStandingDiagnosis(streamThreads, streamWindow, diagnosis.RuleFiles()[streamRules])
	if err != nil {
		return nil, err
	}
	var alerts []dmfwire.StreamAlert
	for i, chunk := range cycle {
		samples := make([]perfdmf.WindowSample, 0, len(chunk))
		for _, ev := range chunk {
			if vals, ok := ev.Exclusive[perfdmf.TimeMetric]; ok {
				samples = append(samples, perfdmf.WindowSample{Event: ev.Name, Values: vals})
			} else if strings.Contains(ev.Name, perfdmf.CallpathSeparator) {
				samples = append(samples, perfdmf.WindowSample{Event: ev.Name})
			}
		}
		firings, err := diag.Append(context.Background(), samples)
		if err != nil {
			return nil, err
		}
		for _, f := range firings {
			alerts = append(alerts, dmfwire.StreamAlert{
				ID: int64(len(alerts) + 1), Seq: int64(i + 1),
				Rule: f.Rule, Output: f.Output, Recommendations: f.Recommendations,
			})
		}
	}
	return alerts, nil
}

// checkAlerts compares what the subscriber received, stream by stream,
// with the in-process alert sequence for the chunks that stream was sent.
func (r *runner) checkAlerts(o *oracleResult) {
	ls := r.sys.stream
	err := ls.settle()
	o.check(err == nil, "%v", err)
	want, err := expectedAlerts(r.sys.in.cycle)
	if err != nil {
		o.check(false, "standing diagnosis in process: %v", err)
		return
	}
	ls.amu.Lock()
	defer ls.amu.Unlock()
	for c, got := range ls.cycles {
		sent := ls.next // the stream still open
		if c < len(ls.sent) {
			sent = ls.sent[c]
		}
		n := 0
		for n < len(want) && want[n].Seq <= int64(sent) {
			n++
		}
		o.check(len(got) == n && (n == 0 || sameJSON(want[:n], got)),
			"stream %d: %d alerts for %d chunks differ from the in-process sequence of %d", c, len(got), sent, n)
	}
	if ls.appends >= 16 {
		o.check(len(ls.alerts) > 0, "no alert fired in %d chunks", ls.appends)
	}
}
