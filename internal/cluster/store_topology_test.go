package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"perfknow/internal/dmfwire"
	"perfknow/internal/perfdmf"
)

// setRing points a fake at the descriptor it should serve from
// ClusterRing, canonicalized the way a real daemon would.
func (f *fakeBackend) setRing(desc dmfwire.Ring) {
	f.mu.Lock()
	defer f.mu.Unlock()
	canon := desc.Canonical()
	f.ring = &canon
}

// TestVerifyRingStaleIsRefreshable: a peer serving a HIGHER epoch means
// the client is behind a rolling membership change — VerifyRing must
// report ErrRingStale (refresh and retry), not a generic hard error.
func TestVerifyRingStaleIsRefreshable(t *testing.T) {
	desc := testDesc()
	s, fakes := newTestCluster(t, desc)
	next := desc
	next.Epoch = 2
	for _, fb := range fakes {
		fb.setRing(next)
	}
	_, err := s.VerifyRing(context.Background())
	if !errors.Is(err, ErrRingStale) {
		t.Fatalf("VerifyRing against newer-epoch peers = %v, want ErrRingStale", err)
	}
}

// TestVerifyRingMisconfigIsHard: a peer serving a DIFFERENT descriptor at
// the SAME epoch is true misconfiguration — two processes would place keys
// differently under one epoch. That must stay a hard error, and must NOT
// be mistaken for the refreshable case.
func TestVerifyRingMisconfigIsHard(t *testing.T) {
	desc := testDesc()
	s, fakes := newTestCluster(t, desc)
	diverged := desc
	diverged.Seed = desc.Seed + 1 // same epoch, different placement
	for _, fb := range fakes {
		fb.setRing(diverged)
	}
	_, err := s.VerifyRing(context.Background())
	if err == nil {
		t.Fatal("VerifyRing accepted a diverged descriptor at equal epoch")
	}
	if errors.Is(err, ErrRingStale) {
		t.Fatalf("equal-epoch divergence reported as refreshable: %v", err)
	}
	if !strings.Contains(err.Error(), "equal epoch") {
		t.Fatalf("error does not name the divergence: %v", err)
	}

	// EnsureRing must not paper over it either.
	if _, err := s.EnsureRing(context.Background()); err == nil || errors.Is(err, ErrRingStale) {
		t.Fatalf("EnsureRing on misconfiguration = %v, want hard error", err)
	}
}

// TestVerifyRingSkipsLaggingPeers: a peer still serving an OLDER epoch is
// neither confirmation nor failure — gossip will catch it up.
func TestVerifyRingSkipsLaggingPeers(t *testing.T) {
	desc := testDesc()
	desc.Epoch = 2
	s, fakes := newTestCluster(t, desc)
	old := desc
	old.Epoch = 1
	peers := s.Ring().Peers()
	fakes[peers[0]].setRing(old)  // behind
	fakes[peers[1]].setRing(desc) // current
	// peers[2] serves no ring at all (standalone): skipped.
	confirmed, err := s.VerifyRing(context.Background())
	if err != nil {
		t.Fatalf("VerifyRing = %v, want nil (lagging peer must be skipped)", err)
	}
	if confirmed != 1 {
		t.Fatalf("confirmed = %d, want 1 (only the current-epoch peer)", confirmed)
	}
}

// TestEnsureRingRefreshesAndRetriesOnce: the client arrives with the old
// epoch mid-rolling-bump, every daemon already serves the new one. One
// EnsureRing call must converge: fetch the newer descriptor, adopt it, and
// verify cleanly — no restart, no hard failure.
func TestEnsureRingRefreshesAndRetriesOnce(t *testing.T) {
	desc := testDesc()
	s, fakes := newTestCluster(t, desc)
	next := desc
	next.Epoch = 5
	for _, fb := range fakes {
		fb.setRing(next)
	}
	confirmed, err := s.EnsureRing(context.Background())
	if err != nil {
		t.Fatalf("EnsureRing = %v, want clean convergence", err)
	}
	if confirmed != len(desc.Peers) {
		t.Fatalf("confirmed = %d, want %d", confirmed, len(desc.Peers))
	}
	if got := s.Ring().Descriptor().Epoch; got != 5 {
		t.Fatalf("store still at epoch %d after EnsureRing, want 5", got)
	}
}

// TestRefreshRingDialsNewPeers: an epoch bump that grows the cluster names
// a peer the store has never dialed; RefreshRing must bring it in through
// the backend factory, and routing must immediately use it.
func TestRefreshRingDialsNewPeers(t *testing.T) {
	desc := testDesc()
	fakes := map[string]*fakeBackend{}
	backends := map[string]Backend{}
	for _, p := range desc.Peers {
		fb := newFakeBackend()
		fakes[p] = fb
		backends[p] = fb
	}
	var mu sync.Mutex
	s, err := New(desc, backends, WithBackendFactory(func(peer string) (Backend, error) {
		mu.Lock()
		defer mu.Unlock()
		fb := newFakeBackend()
		fakes[peer] = fb
		return fb, nil
	}))
	if err != nil {
		t.Fatal(err)
	}

	grown := desc
	grown.Epoch = 2
	grown.Peers = append(append([]string(nil), desc.Peers...), "http://node-d:7360")
	for _, p := range desc.Peers {
		fakes[p].setRing(grown)
	}
	adopted, err := s.RefreshRing(context.Background())
	if err != nil || !adopted {
		t.Fatalf("RefreshRing = (%v, %v), want adopted", adopted, err)
	}
	if got := len(s.Ring().Peers()); got != 4 {
		t.Fatalf("ring has %d peers after refresh, want 4", got)
	}
	if s.Backend("http://node-d:7360") == nil {
		t.Fatal("new peer was not dialed through the factory")
	}
	if err := s.SaveContext(context.Background(), trial("sweep3d", "weak-scaling", "np64")); err != nil {
		t.Fatalf("save after refresh: %v", err)
	}
}

// TestAdoptRingGuards pins the adoption rules: identical re-adoption is a
// no-op, lower epochs and equal-epoch divergence are refused, and growing
// without a factory fails loudly instead of routing to a nil backend.
func TestAdoptRingGuards(t *testing.T) {
	desc := testDesc()
	s, _ := newTestCluster(t, desc)

	if err := s.AdoptRing(desc); err != nil {
		t.Fatalf("idempotent re-adoption = %v, want nil", err)
	}
	lower := desc
	lower.Epoch = 0
	if err := s.AdoptRing(lower); err == nil {
		t.Fatal("adopted an invalid (epoch 0) descriptor")
	}
	diverged := desc
	diverged.Seed++
	if err := s.AdoptRing(diverged); err == nil {
		t.Fatal("adopted a diverged descriptor at the same epoch")
	}
	grown := desc
	grown.Epoch = 2
	grown.Peers = append(append([]string(nil), desc.Peers...), "http://node-d:7360")
	if err := s.AdoptRing(grown); err == nil {
		t.Fatal("adopted a grown ring without a backend factory")
	}
	if got := s.Ring().Descriptor().Epoch; got != desc.Epoch {
		t.Fatalf("failed adoptions changed the ring: epoch %d", got)
	}
}

// hintedFake is a fakeBackend that also accepts hinted writes, recording
// owner → trials the way a real daemon's hint store would.
type hintedFake struct {
	*fakeBackend
	hmu   sync.Mutex
	hints map[string][]string // owner -> "app/exp/trial"
}

func newHintedFake() *hintedFake {
	return &hintedFake{fakeBackend: newFakeBackend(), hints: map[string][]string{}}
}

func (h *hintedFake) SaveHintedContext(ctx context.Context, t *perfdmf.Trial, owner string) error {
	if err := h.SaveContext(ctx, t); err != nil {
		return err
	}
	h.hmu.Lock()
	defer h.hmu.Unlock()
	h.hints[owner] = append(h.hints[owner], t.App+"/"+t.Experiment+"/"+t.Name)
	return nil
}

func (h *hintedFake) hintsFor(owner string) []string {
	h.hmu.Lock()
	defer h.hmu.Unlock()
	return append([]string(nil), h.hints[owner]...)
}

// TestSaveLeavesHintOnReroute: with one owner down, the re-routed replica
// write must carry a hint naming the failed owner, so handoff can finish
// the delivery when it returns.
func TestSaveLeavesHintOnReroute(t *testing.T) {
	desc := testDesc()
	fakes := map[string]*hintedFake{}
	backends := map[string]Backend{}
	for _, p := range desc.Peers {
		hf := newHintedFake()
		fakes[p] = hf
		backends[p] = hf
	}
	s, err := New(desc, backends)
	if err != nil {
		t.Fatal(err)
	}

	tr := trial("sweep3d", "weak-scaling", "np64")
	pref := s.Ring().Preference(tr.App, tr.Experiment)
	dead, successor := pref[0], pref[2] // R=2: owners pref[0:2], first successor pref[2]
	fakes[dead].setDown(true)

	if err := s.SaveContext(context.Background(), tr); err != nil {
		t.Fatal(err)
	}
	if !fakes[successor].has(tr.App, tr.Experiment, tr.Name) {
		t.Fatalf("successor %s did not receive the re-routed copy", successor)
	}
	want := tr.App + "/" + tr.Experiment + "/" + tr.Name
	got := fakes[successor].hintsFor(dead)
	if len(got) != 1 || got[0] != want {
		t.Fatalf("successor hints for %s = %v, want [%s]", dead, got, want)
	}
}

// TestRepairThrottlePaces: WithRepairThrottle must insert the pause
// between repaired coordinates (a 0-throttle pass is effectively instant
// on fakes, so wall-clock is a faithful signal here).
func TestRepairThrottlePaces(t *testing.T) {
	desc := testDesc()
	fakes := map[string]*fakeBackend{}
	backends := map[string]Backend{}
	for _, p := range desc.Peers {
		fb := newFakeBackend()
		fakes[p] = fb
		backends[p] = fb
	}
	const throttle = 30 * time.Millisecond
	s, err := New(desc, backends, WithRepairThrottle(throttle))
	if err != nil {
		t.Fatal(err)
	}
	// Three coordinates, stored only on a non-owner each, so repair has
	// real copies to make.
	wrong := s.Ring().Peers()[0]
	for _, name := range []string{"e1", "e2", "e3"} {
		tr := trial("app", name, "t")
		if err := fakes[wrong].SaveContext(context.Background(), tr); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	rep, err := s.Rebalance(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trials != 3 {
		t.Fatalf("scan saw %d trials, want 3", rep.Trials)
	}
	if elapsed := time.Since(start); elapsed < 2*throttle {
		t.Fatalf("throttled pass over 3 coordinates took %v, want >= %v", elapsed, 2*throttle)
	}
	// And the throttle must be interruptible.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Rebalance(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled throttled pass = %v, want context.Canceled", err)
	}
}

// rawRingPeer answers ClusterRing the way dmfclient does for a daemon
// serving raw at GET /api/v1/cluster: it decodes the bytes.
type rawRingPeer struct {
	*fakeBackend
	raw []byte
}

func (p rawRingPeer) ClusterRing(context.Context) (*dmfwire.Ring, error) {
	r, err := dmfwire.DecodeRing(p.raw)
	if err != nil {
		return nil, fmt.Errorf("GET /api/v1/cluster: %w", err)
	}
	return &r, nil
}

// refusedRings is what one peer of testDesc's cluster may answer that this
// build cannot decode: the same membership as a version 1 descriptor (a
// member still running the previous release), and the current descriptor
// with one checksum digit flipped.
func refusedRings(t *testing.T) map[string][]byte {
	t.Helper()
	good, err := dmfwire.EncodeRing(testDesc())
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(good, []byte("crc32c=")) + len("crc32c=")
	flipped := append([]byte(nil), good...)
	flipped[i] ^= 1
	return map[string][]byte{
		"version 1": []byte("%DMFRING1 epoch=1 replicas=2 vnodes=64 seed=42 peers=3 crc32c=c2157147\n" +
			"http://node-a:7360\nhttp://node-b:7360\nhttp://node-c:7360\n"),
		"flipped crc": flipped,
	}
}

// withRefusedPeer builds testDesc's cluster with the other two peers serving
// the store's own descriptor and the first answering raw.
func withRefusedPeer(t *testing.T, raw []byte) *ShardedStore {
	t.Helper()
	desc := testDesc()
	backends := make(map[string]Backend, len(desc.Peers))
	for i, p := range desc.Peers {
		fb := newFakeBackend()
		fb.setRing(desc)
		backends[p] = fb
		if i == 0 {
			backends[p] = rawRingPeer{fb, raw}
		}
	}
	s, err := New(desc, backends)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestVerifyRingRefusedDescriptorIsHard: a peer that answers with a
// descriptor this build refuses is up and routing by something else. That is
// not "unreachable": VerifyRing and EnsureRing must fail, not count the
// peers that do agree and let the client route.
func TestVerifyRingRefusedDescriptorIsHard(t *testing.T) {
	for name, raw := range refusedRings(t) {
		s := withRefusedPeer(t, raw)
		if n, err := s.VerifyRing(context.Background()); !errors.Is(err, dmfwire.ErrRing) {
			t.Errorf("%s: VerifyRing = (%d, %v), want an error wrapping ErrRing", name, n, err)
		}
		if n, err := s.EnsureRing(context.Background()); !errors.Is(err, dmfwire.ErrRing) {
			t.Errorf("%s: EnsureRing = (%d, %v), want an error wrapping ErrRing", name, n, err)
		}
	}
}

// TestRefreshRingRefusedDescriptorIsHard: the same answer during a refresh
// fails it, whatever the peers that do decode have to offer.
func TestRefreshRingRefusedDescriptorIsHard(t *testing.T) {
	for name, raw := range refusedRings(t) {
		s := withRefusedPeer(t, raw)
		if adopted, err := s.RefreshRing(context.Background()); !errors.Is(err, dmfwire.ErrRing) || adopted {
			t.Errorf("%s: RefreshRing = (%v, %v), want (false, an error wrapping ErrRing)", name, adopted, err)
		}
	}
}
