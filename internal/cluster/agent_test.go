package cluster

import (
	"context"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"perfknow/internal/dmfwire"
)

// fakePeer is an in-memory AgentPeer: a fakeBackend plus scripted gossip
// and hint-replay behaviour.
type fakePeer struct {
	*fakeBackend
	gossip func(ctx context.Context, m dmfwire.Membership) (*dmfwire.Membership, error)

	mu       sync.Mutex
	replayed [][]byte
	saveErr  error
}

func newFakePeer() *fakePeer { return &fakePeer{fakeBackend: newFakeBackend()} }

func (p *fakePeer) Gossip(ctx context.Context, m dmfwire.Membership) (*dmfwire.Membership, error) {
	if p.gossip == nil {
		return nil, errPeerDown
	}
	return p.gossip(ctx, m)
}

func (p *fakePeer) SaveTrialBody(_ context.Context, body []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.saveErr != nil {
		return p.saveErr
	}
	p.replayed = append(p.replayed, append([]byte(nil), body...))
	return nil
}

func (p *fakePeer) replayCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.replayed)
}

// fakeEnv is productionEnv with a fixed seed and dialing only the given
// in-memory peers; any other peer refuses the connection.
func fakeEnv(peers map[string]*fakePeer) env {
	e := productionEnv()
	e.rand = rand.New(rand.NewPCG(1, 2))
	e.dial = func(peer string) (AgentPeer, error) {
		p, ok := peers[peer]
		if !ok {
			return nil, errPeerDown
		}
		return p, nil
	}
	return e
}

// newTestAgent builds an agent over in-memory peers, with loops NOT
// started — tests drive gossipOnce/handoffOnce/repairTick directly.
func newTestAgent(t *testing.T, self string, peers map[string]*fakePeer) *Agent {
	t.Helper()
	a, err := newAgent(AgentConfig{
		Self:           self,
		Ring:           testDesc(),
		SuspectAfter:   3,
		SuspectTimeout: 10 * time.Second,
		HintsDir:       filepath.Join(t.TempDir(), "hints"),
	}, fakeEnv(peers))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// deadRumor marks peer dead in the agent's view via a merged rumor at a
// fresh incarnation — the same path real gossip uses.
func deadRumor(t *testing.T, a *Agent, peer string) {
	t.Helper()
	m := a.View().Snapshot()
	for i := range m.Peers {
		if m.Peers[i].Peer == peer {
			m.Peers[i].Incarnation++
			m.Peers[i].State = dmfwire.StateDead
		}
	}
	m.From = peer
	a.View().Merge(m)
	if got := a.View().State(peer); got != dmfwire.StateDead {
		t.Fatalf("rumor did not kill %s: state = %s", peer, got)
	}
}

func TestAgentGossipSuspectsUnreachablePeer(t *testing.T) {
	desc := testDesc().Canonical()
	self, live, dead := desc.Peers[0], desc.Peers[1], desc.Peers[2]

	liveView, err := NewView(ViewConfig{Self: live, Ring: desc})
	if err != nil {
		t.Fatal(err)
	}
	livePeer := newFakePeer()
	livePeer.gossip = func(_ context.Context, m dmfwire.Membership) (*dmfwire.Membership, error) {
		liveView.Merge(m)
		reply := liveView.Snapshot()
		return &reply, nil
	}
	// dead is absent from the dial map entirely: connection refused.
	a := newTestAgent(t, self, map[string]*fakePeer{live: livePeer})

	// Round-robin over [live, dead]: six rounds probe each three times.
	for i := 0; i < 6; i++ {
		a.gossipOnce(context.Background())
	}
	if got := a.View().State(dead); got != dmfwire.StateSuspect {
		t.Fatalf("unreachable peer state = %s, want suspect", got)
	}
	if got := a.View().State(live); got != dmfwire.StateAlive {
		t.Fatalf("reachable peer state = %s, want alive", got)
	}
}

func TestAgentEpochPropagatesViaGossip(t *testing.T) {
	desc := testDesc().Canonical()
	self, announced := desc.Peers[0], desc.Peers[1]

	// The announced peer already holds epoch 2 (an operator posted it
	// there); one exchange must carry it to us.
	next := desc
	next.Epoch = 2
	announcedView, err := NewView(ViewConfig{Self: announced, Ring: next})
	if err != nil {
		t.Fatal(err)
	}
	peer := newFakePeer()
	peer.gossip = func(_ context.Context, m dmfwire.Membership) (*dmfwire.Membership, error) {
		announcedView.Merge(m)
		reply := announcedView.Snapshot()
		return &reply, nil
	}
	a := newTestAgent(t, self, map[string]*fakePeer{
		announced:     peer,
		desc.Peers[2]: newFakePeer(), // dialable but gossip fails
	})
	for i := 0; i < 2; i++ { // at most two rounds to hit the announced peer
		a.gossipOnce(context.Background())
	}
	if got := a.View().Epoch(); got != 2 {
		t.Fatalf("epoch after gossip = %d, want 2", got)
	}
}

func TestAgentHandleGossipRefutesAndReplies(t *testing.T) {
	desc := testDesc().Canonical()
	self := desc.Peers[0]
	a := newTestAgent(t, self, nil)

	// A caller claims we are dead at our current incarnation.
	m := a.View().Snapshot()
	m.From = desc.Peers[1]
	for i := range m.Peers {
		if m.Peers[i].Peer == self {
			m.Peers[i].State = dmfwire.StateDead
		}
	}
	reply := a.HandleGossip(m)
	for _, st := range reply.Peers {
		if st.Peer == self {
			if st.State != dmfwire.StateAlive || st.Incarnation != 2 {
				t.Fatalf("reply self entry = inc=%d state=%s, want inc=2 alive (refuted)", st.Incarnation, st.State)
			}
		}
	}
	if reply.From != self {
		t.Fatalf("reply.From = %s, want %s", reply.From, self)
	}
	// The reply must encode: HandleGossip feeds the HTTP handler directly.
	if _, err := dmfwire.EncodeMembership(reply); err != nil {
		t.Fatalf("reply does not encode: %v", err)
	}
}

func TestAgentHandoffReplaysToRevivedOwner(t *testing.T) {
	desc := testDesc().Canonical()
	self, owner := desc.Peers[0], desc.Peers[1]
	ownerPeer := newFakePeer()
	a := newTestAgent(t, self, map[string]*fakePeer{owner: ownerPeer})

	hint := dmfwire.Hint{Owner: owner, App: "sweep3d", Experiment: "weak-scaling", Trial: "np64", Body: []byte(`{"app":"sweep3d"}`)}
	if err := a.AcceptHint(hint); err != nil {
		t.Fatal(err)
	}

	// Owner believed dead: the hint must stay put.
	deadRumor(t, a, owner)
	a.handoffOnce(context.Background())
	if got := a.Hints().Pending(); got != 1 {
		t.Fatalf("hint replayed to a dead owner (pending = %d)", got)
	}

	// Owner replays refuse: hint stays, failure counted.
	a.View().ObserveSuccess(owner)
	ownerPeer.mu.Lock()
	ownerPeer.saveErr = errPeerDown
	ownerPeer.mu.Unlock()
	a.handoffOnce(context.Background())
	if got := a.Hints().Pending(); got != 1 {
		t.Fatalf("failed replay removed the hint (pending = %d)", got)
	}

	// Owner healthy: delivered byte-for-byte, record removed.
	ownerPeer.mu.Lock()
	ownerPeer.saveErr = nil
	ownerPeer.mu.Unlock()
	a.handoffOnce(context.Background())
	if got := a.Hints().Pending(); got != 0 {
		t.Fatalf("pending after replay = %d, want 0", got)
	}
	ownerPeer.mu.Lock()
	defer ownerPeer.mu.Unlock()
	if len(ownerPeer.replayed) != 1 || string(ownerPeer.replayed[0]) != `{"app":"sweep3d"}` {
		t.Fatalf("replayed bodies = %q, want the original hint body", ownerPeer.replayed)
	}
}

func TestAgentRepairRestoresReplication(t *testing.T) {
	desc := testDesc().Canonical()
	peers := map[string]*fakePeer{}
	for _, p := range desc.Peers {
		peers[p] = newFakePeer()
	}
	leader, dead := desc.Peers[0], desc.Peers[2]
	a := newTestAgent(t, leader, peers)
	deadRumor(t, a, dead)

	// One copy survives on the leader; with the dead peer out of the live
	// sub-ring, repair must put a second copy on the other alive peer.
	tr := trial("sweep3d", "weak-scaling", "np64")
	if err := peers[leader].SaveContext(context.Background(), tr); err != nil {
		t.Fatal(err)
	}
	a.repairTick(context.Background())

	other := desc.Peers[1]
	if !peers[other].has(tr.App, tr.Experiment, tr.Name) {
		t.Fatalf("repair did not restore the second replica on %s", other)
	}
	if !peers[leader].has(tr.App, tr.Experiment, tr.Name) {
		t.Fatal("repair removed the leader's copy")
	}
	if peers[dead].saveCount() != 0 {
		t.Fatal("repair wrote to a dead peer")
	}
}

func TestAgentRepairOnlyOnLeader(t *testing.T) {
	desc := testDesc().Canonical()
	peers := map[string]*fakePeer{}
	for _, p := range desc.Peers {
		peers[p] = newFakePeer()
	}
	follower, dead := desc.Peers[1], desc.Peers[2]
	a := newTestAgent(t, follower, peers)
	deadRumor(t, a, dead)

	tr := trial("sweep3d", "weak-scaling", "np64")
	if err := peers[follower].SaveContext(context.Background(), tr); err != nil {
		t.Fatal(err)
	}
	a.repairTick(context.Background())
	for url, p := range peers {
		if url == follower {
			continue
		}
		if p.saveCount() != 0 {
			t.Fatalf("non-leader repaired: %s received a copy", url)
		}
	}
}

func TestAgentStartClose(t *testing.T) {
	desc := testDesc().Canonical()
	self := desc.Peers[0]
	liveView, err := NewView(ViewConfig{Self: desc.Peers[1], Ring: desc})
	if err != nil {
		t.Fatal(err)
	}
	peer := newFakePeer()
	peer.gossip = func(_ context.Context, m dmfwire.Membership) (*dmfwire.Membership, error) {
		liveView.Merge(m)
		reply := liveView.Snapshot()
		return &reply, nil
	}
	a, err := newAgent(AgentConfig{
		Self:           self,
		Ring:           testDesc(),
		ProbeInterval:  2 * time.Millisecond,
		RepairInterval: 5 * time.Millisecond,
		HintsDir:       filepath.Join(t.TempDir(), "hints"),
	}, fakeEnv(map[string]*fakePeer{desc.Peers[1]: peer}))
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	time.Sleep(25 * time.Millisecond)
	a.Close()
	a.Close() // idempotent

	if got := a.GossipView(); got.Self != self {
		t.Fatalf("GossipView.Self = %s, want %s", got.Self, self)
	}
}

func TestAgentAnnounceRing(t *testing.T) {
	desc := testDesc().Canonical()
	a := newTestAgent(t, desc.Peers[0], nil)

	next := desc
	next.Epoch = 3
	adopted, err := a.AnnounceRing(next)
	if err != nil || !adopted {
		t.Fatalf("AnnounceRing(newer) = (%v, %v), want adopted", adopted, err)
	}
	if got := a.Ring().Epoch; got != 3 {
		t.Fatalf("epoch after announce = %d, want 3", got)
	}
	// Re-announcing the same epoch is a clean no-op, not an error.
	adopted, err = a.AnnounceRing(next)
	if err != nil || adopted {
		t.Fatalf("AnnounceRing(same) = (%v, %v), want (false, nil)", adopted, err)
	}
	// Garbage is refused.
	bad := next
	bad.Replicas = 0
	if _, err := a.AnnounceRing(bad); err == nil {
		t.Fatal("AnnounceRing accepted an invalid descriptor")
	}
	if a.Ring().Epoch != 3 {
		t.Fatal("failed announce changed the ring")
	}
}

// TestAgentJitterBounds: loop waits are drawn from [3/4, 5/4) of the
// interval (±25%), and the draws cover that band.
func TestAgentJitterBounds(t *testing.T) {
	a := newTestAgent(t, testDesc().Canonical().Peers[0], nil)
	const interval = time.Second
	lo, hi := interval*3/4, interval*5/4
	least, most := hi, lo
	for i := 0; i < 10_000; i++ {
		d := a.jitter(interval)
		if d < lo || d >= hi {
			t.Fatalf("draw %d: jitter(%v) = %v, outside [%v, %v)", i, interval, d, lo, hi)
		}
		least, most = min(least, d), max(most, d)
	}
	if least > lo+interval/100 || most < hi-interval/100 {
		t.Fatalf("10000 draws spanned only [%v, %v] of [%v, %v)", least, most, lo, hi)
	}
}

// TestAgentCloseDuringHungTick: Close while a tick is blocked on a peer that
// never answers returns once the tick's context is cancelled, and leaves
// no goroutine behind.
func TestAgentCloseDuringHungTick(t *testing.T) {
	desc := testDesc().Canonical()
	entered := make(chan struct{}, 1)
	hung := newFakePeer()
	hung.gossip = func(ctx context.Context, _ dmfwire.Membership) (*dmfwire.Membership, error) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-ctx.Done()
		return nil, ctx.Err()
	}
	e := fakeEnv(map[string]*fakePeer{desc.Peers[1]: hung, desc.Peers[2]: hung})
	e.after = func(time.Duration) <-chan time.Time { // every wait is over at once
		fired := make(chan time.Time, 1)
		fired <- time.Time{}
		return fired
	}
	a, err := newAgent(AgentConfig{
		Self:           desc.Peers[0],
		Ring:           desc,
		RepairInterval: time.Hour,
		HintsDir:       filepath.Join(t.TempDir(), "hints"),
	}, e)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	a.Start()
	<-entered
	a.Close()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before Start", runtime.NumGoroutine(), before)
		}
	}
}
