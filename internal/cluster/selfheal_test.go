package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"perfknow/internal/dmfclient"
	"perfknow/internal/dmfserver"
	"perfknow/internal/dmfwire"
	"perfknow/internal/perfdmf"
)

// healPeer is one real perfdmfd service with a live gossip agent and a
// kill switch. While down every connection resets, exactly as if the
// process were SIGKILLed; killing also stops the agent's loops, since a
// dead process gossips with no one.
type healPeer struct {
	url   string
	dir   string // repo's root
	repo  *perfdmf.Repository
	agent *Agent
	ts    *httptest.Server

	down atomic.Bool
	// killIn counts down on each trial upload; the upload that reaches
	// zero aborts mid-body and takes the peer down for good.
	killIn atomic.Int32
}

func (p *healPeer) handle(w http.ResponseWriter, r *http.Request, inner http.Handler) {
	if p.down.Load() {
		panic(http.ErrAbortHandler)
	}
	if r.Method == http.MethodPost && r.URL.Path == "/api/v1/trials" {
		if p.killIn.Load() > 0 && p.killIn.Add(-1) == 0 {
			var partial [64]byte
			_, _ = io.ReadFull(r.Body, partial[:])
			p.kill()
			panic(http.ErrAbortHandler)
		}
	}
	inner.ServeHTTP(w, r)
}

// kill takes the peer down permanently: connections reset and its agent's
// loops stop (asynchronously — Close waits for an in-flight tick).
func (p *healPeer) kill() {
	p.down.Store(true)
	go p.agent.Close()
}

// healTiming compresses the failure-detection and repair cadence so the
// whole heal cycle fits a test: dead in ~200ms, repaired within ~1s.
type healTiming struct {
	probe, suspectTimeout, repair time.Duration
	suspectAfter                  int
}

func fastHeal() healTiming {
	return healTiming{probe: 20 * time.Millisecond, suspectAfter: 2,
		suspectTimeout: 80 * time.Millisecond, repair: 100 * time.Millisecond}
}

// tightClientOpts makes per-peer clients fail fast: the cluster layer owns
// availability, and gossip probes should detect death crisply.
func tightClientOpts() []dmfclient.Option {
	return []dmfclient.Option{
		dmfclient.WithMaxAttempts(2),
		dmfclient.WithBackoff(time.Millisecond, 5*time.Millisecond),
		dmfclient.WithTimeout(10 * time.Second),
	}
}

// newHealingCluster boots n daemons, EACH with a running gossip agent
// (probe/handoff/repair loops live), plus a ShardedStore routing across
// them. Listeners are bound before anything starts so every member knows
// the full ring up front.
func newHealingCluster(t *testing.T, n, replicas int, tm healTiming) (*ShardedStore, map[string]*healPeer, []string) {
	t.Helper()
	listeners := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	desc := dmfwire.Ring{Epoch: 1, Replicas: replicas, VNodes: 64, Seed: 42, Peers: urls}

	peers := make(map[string]*healPeer, n)
	for i, ln := range listeners {
		p := startHealPeer(t, urls[i], desc, tm, ln)
		peers[urls[i]] = p
	}
	s, err := Dial(desc, tightClientOpts())
	if err != nil {
		t.Fatal(err)
	}
	return s, peers, urls
}

// startHealPeer stands up one member: repository, agent, server, proxy.
func startHealPeer(t *testing.T, self string, desc dmfwire.Ring, tm healTiming, ln net.Listener) *healPeer {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "repo")
	repo, err := perfdmf.OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	agent, err := NewAgent(AgentConfig{
		Self:           self,
		Ring:           desc,
		ProbeInterval:  tm.probe,
		SuspectAfter:   tm.suspectAfter,
		SuspectTimeout: tm.suspectTimeout,
		RepairInterval: tm.repair,
		HintsDir:       filepath.Join(t.TempDir(), "hints"),
		Dial: func(peer string) (AgentPeer, error) {
			return dmfclient.New(peer, tightClientOpts()...)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := dmfserver.New(dmfserver.Config{
		Repo:   repo,
		Node:   agent,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	p := &healPeer{url: self, dir: dir, repo: repo, agent: agent}
	inner := srv.Handler()
	p.ts = &httptest.Server{
		Listener: ln,
		Config:   &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { p.handle(w, r, inner) })},
	}
	p.ts.Start()
	t.Cleanup(p.ts.Close)
	agent.Start()
	t.Cleanup(agent.Close)
	return p
}

// eventually polls cond until it holds or the deadline passes.
func eventually(t *testing.T, d time.Duration, msg string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("condition never held within %v: %s", d, msg)
}

// liveCopies counts, repository by repository (bypassing both routing and
// HTTP), how many live peers hold the trial.
func liveCopies(peers map[string]*healPeer, tr *perfdmf.Trial) int {
	count := 0
	for _, p := range peers {
		if p.down.Load() {
			continue
		}
		for _, name := range p.repo.Trials(tr.App, tr.Experiment) {
			if name == tr.Name {
				count++
			}
		}
	}
	return count
}

// TestSelfHealingRepair is the tentpole's acceptance test: under R=2, one
// replica is SIGKILLed mid-upload and NEVER restarted. Without any
// operator action — no perfexplorer -rebalance — the surviving daemons
// must detect the death via gossip (alive → suspect → dead), and the
// repair leader must re-replicate every trial across the survivors until
// R=2 holds again, with all reads byte-identical throughout.
func TestSelfHealingRepair(t *testing.T) {
	s, peers, _ := newHealingCluster(t, 3, 2, fastHeal())
	workload := chaosTrials()

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

	// The survivors converge on the death: some survivor's view declares
	// the victim dead.
	eventually(t, 10*time.Second, "no survivor declared the victim dead", func() bool {
		for url, p := range peers {
			if url == victim {
				continue
			}
			if p.agent.View().State(victim) == dmfwire.StateDead {
				return true
			}
		}
		return false
	})

	// The in-daemon repair loop restores R=2 for EVERY trial using only
	// the two survivors — the victim stays dead.
	eventually(t, 20*time.Second, "replication factor never recovered", func() bool {
		for _, tr := range workload {
			if liveCopies(peers, tr) < 2 {
				return false
			}
		}
		return true
	})

	// Reads stay byte-identical to the source after the heal.
	for _, want := range workload {
		got, err := s.GetTrial(want.App, want.Experiment, want.Name)
		if err != nil {
			t.Fatalf("read %s/%s/%s after heal: %v", want.App, want.Experiment, want.Name, err)
		}
		gotJSON, _ := json.Marshal(got)
		wantJSON, _ := json.Marshal(want)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("trial %s drifted through the heal:\n%s\nvs\n%s", want.Name, gotJSON, wantJSON)
		}
	}
}

// TestHintedHandoffDrains: a write whose owner is down leaves a durable
// hint on the re-routed peer; when the owner comes back, the handoff loop
// must deliver the trial and drain the hint — again with no operator
// action.
func TestHintedHandoffDrains(t *testing.T) {
	s, peers, _ := newHealingCluster(t, 3, 2, fastHeal())

	tr := trial("sweep3d", "weak-scaling", "np64")
	owner := s.Ring().Owners(tr.App, tr.Experiment)[0]
	peers[owner].kill()

	if err := s.SaveContext(context.Background(), tr); err != nil {
		t.Fatalf("save with dead owner: %v", err)
	}
	var holder *healPeer
	hinted := 0
	for url, p := range peers {
		if url == owner {
			continue
		}
		if n := p.agent.Hints().Pending(); n > 0 {
			hinted += n
			holder = p
		}
	}
	if hinted != 1 {
		t.Fatalf("pending hints across survivors = %d, want 1", hinted)
	}
	// The hint body is the trial's encoded form: the bytes the survivors
	// stored and the bytes replay will post.
	want, err := perfdmf.EncodeTrial(tr)
	if err != nil {
		t.Fatal(err)
	}
	if hints, errs := holder.agent.Hints().All(); len(errs) != 0 || len(hints) != 1 || !bytes.Equal(hints[0].Body, want) {
		t.Fatalf("hint body is not the encoded trial (hints=%d errs=%v)", len(hints), errs)
	}
	// A hint written by a pre-upgrade daemon holds trial JSON; it must
	// still replay.
	old := trial("sweep3d", "weak-scaling", "np32")
	oldBody, err := json.Marshal(old)
	if err != nil {
		t.Fatal(err)
	}
	if err := holder.agent.Hints().Put(dmfwire.Hint{Owner: owner, App: old.App, Experiment: old.Experiment, Trial: old.Name, Body: oldBody}); err != nil {
		t.Fatal(err)
	}
	// A hint queued before the %PDMFCOL3 upgrade holds the trial's
	// %PDMFCOL2 encoding; replay posts it as an encoded trial and the owner
	// must take it, or the hint is stranded for good.
	prevBody, err := os.ReadFile(filepath.Join("..", "perfdmf", "testdata", "col2_sparse.pdmf"))
	if err != nil {
		t.Fatal(err)
	}
	prev, err := perfdmf.DecodeTrial(prevBody)
	if err != nil || !bytes.Contains(prevBody[:32], []byte("%PDMFCOL2\n")) {
		t.Fatalf("testdata is not a %%PDMFCOL2 trial (err=%v)", err)
	}
	if err := holder.agent.Hints().Put(dmfwire.Hint{Owner: owner, App: prev.App, Experiment: prev.Experiment, Trial: prev.Name, Body: prevBody}); err != nil {
		t.Fatal(err)
	}

	// "Restart" the owner: connections flow again and a fresh agent takes
	// over gossip for it (the old one died with the process). The HTTP
	// server keeps serving through the restarted process's node.
	peers[owner].down.Store(false)

	eventually(t, 10*time.Second, "hints never drained to the restarted owner", func() bool {
		for url, p := range peers {
			if url == owner {
				continue
			}
			if p.agent.Hints().Pending() != 0 {
				return false
			}
		}
		return len(peers[owner].repo.Trials(tr.App, tr.Experiment)) == 2 &&
			len(peers[owner].repo.Trials(prev.App, prev.Experiment)) == 1
	})
	if got, err := peers[owner].repo.GetEncoded(context.Background(), tr.App, tr.Experiment, tr.Name); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("replayed trial is not stored as the encoded bytes the hint held (err=%v)", err)
	}
	// The %PDMFCOL2 hint landed as the current encoding of the same trial.
	wantPrev, err := perfdmf.EncodeTrial(prev)
	if err != nil {
		t.Fatal(err)
	}
	stored, err := os.ReadFile(filepath.Join(peers[owner].dir, prev.App, prev.Experiment, prev.Name+".json"))
	if err != nil || !bytes.Equal(stored, wantPrev) || !bytes.Contains(stored[:32], []byte("%PDMFCOL3\n")) {
		t.Fatalf("replayed %%PDMFCOL2 hint is not stored as EncodeTrial's bytes (err=%v)", err)
	}
}

// TestEpochBumpPropagates is the dynamic-membership acceptance test: a
// 2-member cluster grows to 3 by announcing an epoch-2 descriptor to ONE
// member. Gossip must carry it to the other member AND to the joining
// daemon (which only knows a seed), and an active client must converge via
// EnsureRing — all with zero restarts.
func TestEpochBumpPropagates(t *testing.T) {
	tm := fastHeal()
	// Three listeners; the first two form the epoch-1 ring.
	listeners := make([]net.Listener, 3)
	urls := make([]string, 3)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	ring1 := dmfwire.Ring{Epoch: 1, Replicas: 2, VNodes: 64, Seed: 42, Peers: urls[:2]}
	peers := map[string]*healPeer{}
	for i := 0; i < 2; i++ {
		peers[urls[i]] = startHealPeer(t, urls[i], ring1, tm, listeners[i])
	}

	// The joiner knows only itself plus a seed contact; its starting ring
	// is a self-only placeholder the real descriptor will replace.
	joinRing := dmfwire.Ring{Epoch: 1, Replicas: 1, VNodes: 64, Seed: 42, Peers: urls[2:3]}
	joiner, err := NewAgent(AgentConfig{
		Self:           urls[2],
		Ring:           joinRing,
		SeedPeers:      urls[:1],
		ProbeInterval:  tm.probe,
		SuspectAfter:   tm.suspectAfter,
		SuspectTimeout: tm.suspectTimeout,
		HintsDir:       filepath.Join(t.TempDir(), "hints"),
		Dial: func(peer string) (AgentPeer, error) {
			return dmfclient.New(peer, tightClientOpts()...)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	repo, err := perfdmf.OpenRepository(filepath.Join(t.TempDir(), "repo"))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := dmfserver.New(dmfserver.Config{Repo: repo, Node: joiner,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := &httptest.Server{Listener: listeners[2], Config: &http.Server{Handler: srv.Handler()}}
	ts.Start()
	t.Cleanup(ts.Close)
	joiner.Start()
	t.Cleanup(joiner.Close)

	// An active client on the epoch-1 ring.
	s, err := Dial(ring1, tightClientOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.EnsureRing(context.Background()); err != nil {
		t.Fatalf("EnsureRing on the old ring: %v", err)
	}

	// Announce epoch 2 (all three members) to ONE member.
	ring2 := dmfwire.Ring{Epoch: 2, Replicas: 2, VNodes: 64, Seed: 42, Peers: urls}
	announceTo, err := dmfclient.New(urls[0], tightClientOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	adopted, err := announceTo.AnnounceRing(context.Background(), ring2)
	if err != nil || !adopted {
		t.Fatalf("announce = (%v, %v), want adopted", adopted, err)
	}

	// Every daemon converges on epoch 2 — including the joiner, which
	// learns it through its seed — without a single restart.
	clients := map[string]*dmfclient.Client{}
	for _, u := range urls {
		c, err := dmfclient.New(u, tightClientOpts()...)
		if err != nil {
			t.Fatal(err)
		}
		clients[u] = c
	}
	eventually(t, 10*time.Second, "daemons never converged on epoch 2", func() bool {
		for _, u := range urls {
			r, err := clients[u].ClusterRing(context.Background())
			if err != nil || r.Epoch != 2 || len(r.Peers) != 3 {
				return false
			}
		}
		return true
	})

	// The active client converges too: EnsureRing refreshes and routing
	// immediately spans all three members.
	if _, err := s.EnsureRing(context.Background()); err != nil {
		t.Fatalf("EnsureRing after the bump: %v", err)
	}
	if got := s.Ring().Descriptor().Epoch; got != 2 {
		t.Fatalf("client still at epoch %d", got)
	}
	if got := len(s.Ring().Peers()); got != 3 {
		t.Fatalf("client ring has %d peers, want 3", got)
	}
	if err := s.Save(trial("sweep3d", "weak-scaling", "np64")); err != nil {
		t.Fatalf("save through the refreshed ring: %v", err)
	}

	// The joiner's gossip view reflects the grown membership.
	gv, err := clients[urls[2]].ClusterGossipView(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if gv.Epoch != 2 || len(gv.Peers) != 3 {
		t.Fatalf("joiner gossip view = epoch %d with %d peers, want epoch 2 with 3", gv.Epoch, len(gv.Peers))
	}
}
