package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"perfknow/internal/dmfwire"
	"perfknow/internal/perfdmf"
)

// TestSelfHealingRepair: under R=2, one replica is killed mid-upload and
// NEVER restarted. Without any operator action the surviving members must
// detect the death via gossip (alive → suspect → dead), and the repair
// leader must re-replicate every trial across the survivors until R=2
// holds again, with all reads byte-identical throughout.
func TestSelfHealingRepair(t *testing.T) {
	c := newSimCluster(t, 1, 3, 2)
	workload := chaosTrials()

	victim := c.store.Ring().Owners("sweep3d", "strong-scaling")[0]
	c.members[victim].killIn = 3

	for _, tr := range workload {
		if err := c.store.SaveContext(context.Background(), tr); err != nil {
			t.Fatalf("save %s/%s/%s: %v", tr.App, tr.Experiment, tr.Name, err)
		}
	}
	if !c.members[victim].down {
		t.Fatal("kill switch never fired; the workload missed the victim")
	}

	// The survivors converge on the death: some survivor's view declares
	// the victim dead.
	c.until(20, "no survivor declared the victim dead", c.gossipRound, func() bool {
		for _, m := range c.live() {
			if m.agent.View().State(victim) == dmfwire.StateDead {
				return true
			}
		}
		return false
	})

	// The repair leader restores R=2 for EVERY trial using only the two
	// survivors — the victim stays dead.
	c.until(5, "replication factor never recovered", c.repairRound, func() bool {
		for _, tr := range workload {
			if len(c.holders(tr)) < 2 {
				return false
			}
		}
		return true
	})

	// Reads stay byte-identical to the source after the heal.
	for _, want := range workload {
		got, err := c.store.GetTrialContext(context.Background(), want.App, want.Experiment, want.Name)
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
// hint on the re-routed peer; when the owner comes back, the handoff step
// of gossip must deliver the trial and drain the hint — again with no
// operator action.
func TestHintedHandoffDrains(t *testing.T) {
	c := newSimCluster(t, 2, 3, 2)

	tr := trial("sweep3d", "weak-scaling", "np64")
	owner := c.store.Ring().Owners(tr.App, tr.Experiment)[0]
	c.kill(owner)

	if err := c.store.SaveContext(context.Background(), tr); err != nil {
		t.Fatalf("save with dead owner: %v", err)
	}
	var holder *simMember
	hinted := 0
	for _, m := range c.live() {
		if n := m.agent.Hints().Pending(); n > 0 {
			hinted += n
			holder = m
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
	// A hint queued before the %PDMFCOL4 upgrade holds the trial's
	// %PDMFCOL3 encoding; replay posts it as an encoded trial and the owner
	// must take it, or the hint is stranded for good.
	prevBody, err := os.ReadFile(filepath.Join("..", "perfdmf", "testdata", "col3_sparse.pdmf"))
	if err != nil {
		t.Fatal(err)
	}
	prev, err := perfdmf.DecodeTrial(prevBody)
	if err != nil || !bytes.Contains(prevBody[:32], []byte("%PDMFCOL3\n")) {
		t.Fatalf("testdata is not a %%PDMFCOL3 trial (err=%v)", err)
	}
	if err := holder.agent.Hints().Put(dmfwire.Hint{Owner: owner, App: prev.App, Experiment: prev.Experiment, Trial: prev.Name, Body: prevBody}); err != nil {
		t.Fatal(err)
	}

	// The owner restarts over its old directories.
	c.restart(owner)
	restarted := c.members[owner]

	c.until(10, "hints never drained to the restarted owner", c.gossipRound, func() bool {
		for _, m := range c.live() {
			if m.agent.Hints().Pending() != 0 {
				return false
			}
		}
		return len(restarted.repo.Trials(tr.App, tr.Experiment)) == 2 &&
			len(restarted.repo.Trials(prev.App, prev.Experiment)) == 1
	})
	if got, err := restarted.repo.GetEncoded(context.Background(), tr.App, tr.Experiment, tr.Name); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("replayed trial is not stored as the encoded bytes the hint held (err=%v)", err)
	}
	// The %PDMFCOL3 hint landed as the current encoding of the same trial.
	wantPrev, err := perfdmf.EncodeTrial(prev)
	if err != nil {
		t.Fatal(err)
	}
	stored, err := os.ReadFile(filepath.Join(restarted.dir, prev.App, prev.Experiment, prev.Name+".json"))
	if err != nil || !bytes.Equal(stored, wantPrev) || !bytes.Contains(stored[:32], []byte("%PDMFCOL4\n")) {
		t.Fatalf("replayed %%PDMFCOL3 hint is not stored as EncodeTrial's bytes (err=%v)", err)
	}
}

// TestEpochBumpPropagates is the dynamic-membership acceptance test: a
// 2-member cluster grows to 3 by announcing an epoch-2 descriptor to ONE
// member. Gossip must carry it to the other member AND to the joining
// daemon (which only knows a seed), and an active client must converge via
// EnsureRing — all with zero restarts.
func TestEpochBumpPropagates(t *testing.T) {
	urls := []string{"http://m0.sim", "http://m1.sim", "http://m2.sim"}
	ring2 := dmfwire.Ring{Epoch: 2, Replicas: 2, VNodes: 64, Seed: 42, Peers: urls}
	c := newSimNet(t, 3, ring2)

	// The first two form the epoch-1 ring.
	ring1 := dmfwire.Ring{Epoch: 1, Replicas: 2, VNodes: 64, Seed: 42, Peers: urls[:2]}
	for _, u := range urls[:2] {
		c.start(u, ring1, nil)
	}
	// The joiner knows only itself plus a seed contact; its starting ring
	// is a self-only placeholder the real descriptor will replace.
	c.start(urls[2], dmfwire.Ring{Epoch: 1, Replicas: 1, VNodes: 64, Seed: 42, Peers: urls[2:]}, urls[:1])

	// An active client on the epoch-1 ring.
	s, err := New(ring1, c.backends(ring1.Peers),
		WithBackendFactory(func(peer string) (Backend, error) { return c.client(peer) }))
	if err != nil {
		t.Fatal(err)
	}
	s.env = c.env()
	if _, err := s.EnsureRing(context.Background()); err != nil {
		t.Fatalf("EnsureRing on the old ring: %v", err)
	}

	// Announce epoch 2 (all three members) to ONE member.
	announceTo, err := c.client(urls[0])
	if err != nil {
		t.Fatal(err)
	}
	adopted, err := announceTo.AnnounceRing(context.Background(), ring2)
	if err != nil || !adopted {
		t.Fatalf("announce = (%v, %v), want adopted", adopted, err)
	}

	// Every member converges on epoch 2 — including the joiner, which
	// learns it through its seed — without a single restart.
	c.until(10, "members never converged on epoch 2", c.gossipRound, func() bool {
		for _, u := range urls {
			cl, err := c.client(u)
			if err != nil {
				t.Fatal(err)
			}
			r, err := cl.ClusterRing(context.Background())
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
	if err := s.SaveContext(context.Background(), trial("sweep3d", "weak-scaling", "np64")); err != nil {
		t.Fatalf("save through the refreshed ring: %v", err)
	}

	// The joiner's gossip view reflects the grown membership.
	joiner, err := c.client(urls[2])
	if err != nil {
		t.Fatal(err)
	}
	gv, err := joiner.ClusterGossipView(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if gv.Epoch != 2 || len(gv.Peers) != 3 {
		t.Fatalf("joiner gossip view = epoch %d with %d peers, want epoch 2 with 3", gv.Epoch, len(gv.Peers))
	}
}
