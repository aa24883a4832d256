package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"perfknow/internal/core"
	"perfknow/internal/dmfclient"
	"perfknow/internal/dmfserver"
	"perfknow/internal/dmfwire"
	"perfknow/internal/perfdmf"
)

// chaosPeer wraps one real perfdmfd service with a kill switch: while
// "down" every connection resets (as if the process were SIGKILLed), and
// an armed kill fires mid-upload — after the request body has started
// arriving — so the write is genuinely interrupted, not cleanly refused.
type chaosPeer struct {
	repo *perfdmf.Repository
	ts   *httptest.Server

	down atomic.Bool
	// killIn counts down on each trial upload; the upload that reaches
	// zero aborts mid-body and takes the peer down.
	killIn atomic.Int32
}

func (p *chaosPeer) ServeHTTP(w http.ResponseWriter, r *http.Request, inner http.Handler) {
	if p.down.Load() {
		panic(http.ErrAbortHandler) // connection reset, like a dead process
	}
	if r.Method == http.MethodPost && r.URL.Path == "/api/v1/trials" {
		if p.killIn.Load() > 0 && p.killIn.Add(-1) == 0 {
			// SIGKILL mid-write: consume part of the upload, then die.
			var partial [64]byte
			_, _ = io.ReadFull(r.Body, partial[:])
			p.down.Store(true)
			panic(http.ErrAbortHandler)
		}
	}
	inner.ServeHTTP(w, r)
}

// newChaosCluster boots n real dmfserver instances behind kill-switch
// proxies and a ShardedStore routing across them with replication factor
// replicas.
func newChaosCluster(t *testing.T, n, replicas int) (*ShardedStore, map[string]*chaosPeer) {
	t.Helper()
	peers := make(map[string]*chaosPeer, n)
	var urls []string
	for i := 0; i < n; i++ {
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
		p := &chaosPeer{repo: repo}
		inner := srv.Handler()
		p.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			p.ServeHTTP(w, r, inner)
		}))
		t.Cleanup(p.ts.Close)
		peers[p.ts.URL] = p
		urls = append(urls, p.ts.URL)
	}
	desc := dmfwire.Ring{Epoch: 1, Replicas: replicas, VNodes: 64, Seed: 42, Peers: urls}
	// Tight retry budget: a dead peer should fail fast, and the cluster
	// layer — not the per-peer client — owns availability.
	clientOpts := []dmfclient.Option{
		dmfclient.WithRetryPolicy(dmfclient.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}),
		dmfclient.WithTimeout(10 * time.Second),
	}
	s, err := Dial(desc, clientOpts)
	if err != nil {
		t.Fatal(err)
	}
	return s, peers
}

// chaosTrials is the workload: three experiments, a few trials each.
func chaosTrials() []*perfdmf.Trial {
	var out []*perfdmf.Trial
	for _, exp := range []string{"weak-scaling", "strong-scaling", "io-study"} {
		for i := 1; i <= 4; i++ {
			tr := trial("sweep3d", exp, fmt.Sprintf("np%d", 16*i))
			tr.Metadata["procs"] = fmt.Sprintf("%d", 16*i)
			out = append(out, tr)
		}
	}
	return out
}

// replicaCount counts, peer by peer (bypassing the routing layer), how
// many live copies of a trial the cluster holds.
func replicaCount(t *testing.T, s *ShardedStore, peers map[string]*chaosPeer, tr *perfdmf.Trial) int {
	t.Helper()
	count := 0
	for url, p := range peers {
		if p.down.Load() {
			continue
		}
		names, err := s.Backend(url).ListTrials(tr.App, tr.Experiment)
		if err != nil {
			t.Fatalf("list on %s: %v", url, err)
		}
		for _, n := range names {
			if n == tr.Name {
				count++
			}
		}
	}
	return count
}

// TestClusterChaos is the subsystem's acceptance test: a replica dies
// mid-write under R=2, and the cluster must (1) keep accepting writes by
// re-routing, (2) serve every trial byte-identically to a single-node
// store, (3) run an analysis session against the cluster with output
// byte-identical to single-node, and (4) restore full replication after
// the replica restarts and Rebalance runs.
func TestClusterChaos(t *testing.T) {
	s, peers := newChaosCluster(t, 3, 2)
	workload := chaosTrials()

	// Arm the kill on the primary owner of the second experiment: its
	// third upload dies mid-body and the peer stays dead.
	victim := s.Ring().Owners("sweep3d", "strong-scaling")[0]
	peers[victim].killIn.Store(3)

	for _, tr := range workload {
		if err := s.SaveContext(context.Background(), tr); err != nil {
			t.Fatalf("save %s/%s/%s: %v", tr.App, tr.Experiment, tr.Name, err)
		}
	}
	if !peers[victim].down.Load() {
		t.Fatal("kill switch never fired; the workload missed the victim")
	}

	// (1) Writes kept succeeding (no Save error above) and re-routed
	// around the dead peer.
	reg := s.Registry()
	if reg.Counter("cluster_writes_rerouted_total").Value() == 0 {
		t.Error("no write was re-routed despite a dead owner")
	}

	// (2) Every trial reads back byte-identical to its source, replica
	// death notwithstanding.
	for _, want := range workload {
		got, err := s.GetTrialContext(context.Background(), want.App, want.Experiment, want.Name)
		if err != nil {
			t.Fatalf("read %s/%s/%s with a replica down: %v", want.App, want.Experiment, want.Name, err)
		}
		gotJSON, _ := json.Marshal(got)
		wantJSON, _ := json.Marshal(want)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("trial %s drifted through the cluster:\n%s\nvs\n%s", want.Name, gotJSON, wantJSON)
		}
	}

	// (3) An analysis session routed through the degraded cluster prints
	// exactly the bytes a single-node session prints.
	script := `
apps = Utilities.applications()
print(apps)
for exp in Utilities.experiments("sweep3d") {
	print(exp, Utilities.trials("sweep3d", exp))
}
trial = Utilities.getTrial("sweep3d", "strong-scaling", "np32")
print(trial.name, trial.threads, trial.mainEvent)
print(trial.meanInclusive("main", "TIME"))
`
	single := perfdmf.NewRepository()
	for _, tr := range workload {
		if err := single.Save(tr.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	run := func(store perfdmf.Store) string {
		var buf bytes.Buffer
		sess := core.NewSession(store)
		sess.SetOutput(&buf)
		if err := sess.RunScript(script); err != nil {
			t.Fatalf("session script: %v", err)
		}
		return buf.String()
	}
	clusterOut := run(s)
	singleOut := run(single)
	if clusterOut != singleOut {
		t.Fatalf("cluster analysis diverged from single-node:\n--- cluster ---\n%s\n--- single ---\n%s", clusterOut, singleOut)
	}
	if !strings.Contains(clusterOut, "np32") {
		t.Fatalf("analysis output looks empty:\n%s", clusterOut)
	}

	// (4) Restart the victim and repair. The trials written after its
	// death re-routed copies elsewhere; Rebalance must copy them home and
	// end with every trial at full replication.
	peers[victim].down.Store(false)
	rep, err := s.Rebalance(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("repair did not complete cleanly: %+v", rep)
	}
	if rep.Copied == 0 {
		t.Fatalf("repair found nothing to copy after a replica died mid-workload: %+v", rep)
	}
	for _, tr := range workload {
		if got := replicaCount(t, s, peers, tr); got != 2 {
			t.Errorf("trial %s/%s has %d replicas after repair, want 2", tr.Experiment, tr.Name, got)
		}
		for _, owner := range s.Ring().Owners(tr.App, tr.Experiment) {
			names, err := s.Backend(owner).ListTrials(tr.App, tr.Experiment)
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, n := range names {
				found = found || n == tr.Name
			}
			if !found {
				t.Errorf("owner %s is missing %s/%s after repair", owner, tr.Experiment, tr.Name)
			}
		}
	}

	// A second pass converges: nothing left to move.
	rep, err = s.Rebalance(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Copied != 0 || rep.Removed != 0 || !rep.Clean() {
		t.Fatalf("repair did not converge: %+v", rep)
	}
}

// TestClusterExactlyOncePerReplica: the cluster layer inherits the
// client's idempotency keys, so a retried upload must not double-apply on
// a replica that already stored it.
func TestClusterExactlyOncePerReplica(t *testing.T) {
	s, peers := newChaosCluster(t, 3, 2)
	tr := trial("sweep3d", "weak-scaling", "np64")
	if err := s.SaveContext(context.Background(), tr); err != nil {
		t.Fatal(err)
	}
	// Save the same trial again (a new logical upload): replicas simply
	// overwrite — still exactly one copy per owner.
	if err := s.SaveContext(context.Background(), tr); err != nil {
		t.Fatal(err)
	}
	for url := range peers {
		names, err := s.Backend(url).ListTrials(tr.App, tr.Experiment)
		if err != nil {
			t.Fatal(err)
		}
		seen := 0
		for _, n := range names {
			if n == tr.Name {
				seen++
			}
		}
		if seen > 1 {
			t.Fatalf("peer %s lists the trial %d times", url, seen)
		}
		if s.Ring().IsOwner(url, tr.App, tr.Experiment) && seen != 1 {
			t.Fatalf("owner %s lists the trial %d times, want 1", url, seen)
		}
	}
}
