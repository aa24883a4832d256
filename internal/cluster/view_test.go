package cluster

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"perfknow/internal/dmfwire"
)

// fakeClock is a hand-advanced clock for deterministic detector tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func newTestView(t *testing.T, self string, clk *fakeClock) *View {
	t.Helper()
	v, err := newView(ViewConfig{
		Self:           self,
		Ring:           testDesc(),
		SuspectAfter:   3,
		SuspectTimeout: 10 * time.Second,
	}, clk.now)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestViewLifecycleAliveSuspectDead(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	peers := testDesc().Canonical().Peers
	self, target := peers[0], peers[1]
	v := newTestView(t, self, clk)

	// Two misses: still alive (transient blips must not flap the view).
	v.ObserveFailure(target)
	v.ObserveFailure(target)
	if got := v.State(target); got != dmfwire.StateAlive {
		t.Fatalf("after 2 misses state = %s, want alive", got)
	}
	// Third miss: suspect.
	v.ObserveFailure(target)
	if got := v.State(target); got != dmfwire.StateSuspect {
		t.Fatalf("after 3 misses state = %s, want suspect", got)
	}
	// Not yet timed out: Tick is a no-op.
	clk.advance(9 * time.Second)
	if died := v.Tick(); len(died) != 0 {
		t.Fatalf("Tick before timeout declared %v dead", died)
	}
	// Timed out: dead, reported exactly once.
	clk.advance(2 * time.Second)
	if died := v.Tick(); !reflect.DeepEqual(died, []string{target}) {
		t.Fatalf("Tick = %v, want [%s]", died, target)
	}
	if died := v.Tick(); len(died) != 0 {
		t.Fatalf("second Tick re-declared %v dead", died)
	}
	// First-hand contact revives even a dead peer.
	v.ObserveSuccess(target)
	if got := v.State(target); got != dmfwire.StateAlive {
		t.Fatalf("after ObserveSuccess state = %s, want alive", got)
	}
	// And the miss counter restarted from zero.
	v.ObserveFailure(target)
	v.ObserveFailure(target)
	if got := v.State(target); got != dmfwire.StateAlive {
		t.Fatalf("misses survived revival: state = %s, want alive", got)
	}
}

func TestViewAliveExcludesSuspects(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	peers := testDesc().Canonical().Peers
	v := newTestView(t, peers[0], clk)
	for i := 0; i < 3; i++ {
		v.ObserveFailure(peers[1])
	}
	if got := v.Alive(); !reflect.DeepEqual(got, []string{peers[0], peers[2]}) {
		t.Fatalf("Alive = %v, want [%s %s]", got, peers[0], peers[2])
	}
}

func TestViewMergeIncarnationRules(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	peers := testDesc().Canonical().Peers
	self, target := peers[0], peers[1]

	rumor := func(inc uint64, st dmfwire.PeerState) dmfwire.Membership {
		m := dmfwire.Membership{From: peers[2], Ring: testDesc().Canonical()}
		for _, p := range m.Ring.Peers {
			e := dmfwire.PeerStatus{Peer: p, State: dmfwire.StateAlive}
			if p == target {
				e.Incarnation, e.State = inc, st
			}
			m.Peers = append(m.Peers, e)
		}
		return m
	}

	v := newTestView(t, self, clk)
	// Equal incarnation (0), worse state: pessimism wins.
	v.Merge(rumor(0, dmfwire.StateSuspect))
	if got := v.State(target); got != dmfwire.StateSuspect {
		t.Fatalf("equal-inc suspect rumor ignored: state = %s", got)
	}
	// Equal incarnation, better state: ignored (only a new incarnation
	// refutes).
	v.Merge(rumor(0, dmfwire.StateAlive))
	if got := v.State(target); got != dmfwire.StateSuspect {
		t.Fatalf("equal-inc alive rumor un-suspected the peer: state = %s", got)
	}
	// Higher incarnation, alive: the peer refuted — rumor dies.
	v.Merge(rumor(1, dmfwire.StateAlive))
	if got := v.State(target); got != dmfwire.StateAlive {
		t.Fatalf("refutation at inc 1 ignored: state = %s", got)
	}
	// Lower incarnation (0 again), dead: stale rumor, ignored.
	v.Merge(rumor(0, dmfwire.StateDead))
	if got := v.State(target); got != dmfwire.StateAlive {
		t.Fatalf("stale dead rumor applied: state = %s", got)
	}
	// Higher incarnation, dead: believed.
	v.Merge(rumor(2, dmfwire.StateDead))
	if got := v.State(target); got != dmfwire.StateDead {
		t.Fatalf("inc-2 dead rumor ignored: state = %s", got)
	}
}

func TestViewSelfRefutation(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	peers := testDesc().Canonical().Peers
	self := peers[0]
	v := newTestView(t, self, clk)

	// Self starts at incarnation 1 (outranking rumors about a previous
	// life at incarnation 0).
	snap := v.Snapshot()
	var mine dmfwire.PeerStatus
	for _, st := range snap.Peers {
		if st.Peer == self {
			mine = st
		}
	}
	if mine.Incarnation != 1 || mine.State != dmfwire.StateAlive {
		t.Fatalf("self starts at inc=%d state=%s, want inc=1 alive", mine.Incarnation, mine.State)
	}

	// A rumor that we are dead at inc 5 must be outranked, not believed.
	m := dmfwire.Membership{From: peers[1], Ring: testDesc().Canonical()}
	for _, p := range m.Ring.Peers {
		e := dmfwire.PeerStatus{Peer: p, State: dmfwire.StateAlive}
		if p == self {
			e.Incarnation, e.State = 5, dmfwire.StateDead
		}
		m.Peers = append(m.Peers, e)
	}
	v.Merge(m)
	snap = v.Snapshot()
	for _, st := range snap.Peers {
		if st.Peer == self {
			if st.Incarnation != 6 || st.State != dmfwire.StateAlive {
				t.Fatalf("after dead-at-5 rumor self is inc=%d state=%s, want inc=6 alive", st.Incarnation, st.State)
			}
		}
	}
}

func TestViewMergeAdoptsNewerRing(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	desc := testDesc().Canonical()
	self, departing := desc.Peers[0], desc.Peers[2]
	v := newTestView(t, self, clk)

	// Make peers[1] suspect so we can check its state survives adoption.
	for i := 0; i < 3; i++ {
		v.ObserveFailure(desc.Peers[1])
	}

	grown := desc
	grown.Epoch = 2
	grown.Peers = []string{desc.Peers[0], desc.Peers[1], "http://node-d:7360"}
	m := dmfwire.Membership{From: desc.Peers[1], Ring: grown}
	for _, p := range grown.Canonical().Peers {
		m.Peers = append(m.Peers, dmfwire.PeerStatus{Peer: p, State: dmfwire.StateAlive})
	}
	if !v.Merge(m) {
		t.Fatal("newer-epoch ring was not adopted")
	}
	if got := v.Epoch(); got != 2 {
		t.Fatalf("epoch = %d, want 2", got)
	}
	// Departed peer forgotten, new peer met as alive, retained suspect...
	// refuted only because the sender's equal-inc alive does not beat it.
	if got := v.State(departing); got != "" {
		t.Fatalf("departed peer still tracked as %q", got)
	}
	if got := v.State("http://node-d:7360"); got != dmfwire.StateAlive {
		t.Fatalf("new peer state = %s, want alive", got)
	}
	if got := v.State(desc.Peers[1]); got != dmfwire.StateSuspect {
		t.Fatalf("retained peer lost its suspect state across adoption: %s", got)
	}

	// An older epoch arriving later must not roll the ring back.
	old := dmfwire.Membership{From: desc.Peers[1], Ring: desc}
	for _, p := range desc.Peers {
		old.Peers = append(old.Peers, dmfwire.PeerStatus{Peer: p, State: dmfwire.StateAlive})
	}
	if v.Merge(old) {
		t.Fatal("older-epoch ring was re-adopted")
	}
	if got := v.Epoch(); got != 2 {
		t.Fatalf("epoch rolled back to %d", got)
	}
}

func TestViewAdoptRing(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	desc := testDesc().Canonical()
	v := newTestView(t, desc.Peers[0], clk)

	next := desc
	next.Epoch = 7
	if !v.AdoptRing(next) {
		t.Fatal("newer ring not adopted")
	}
	if v.Epoch() != 7 {
		t.Fatalf("epoch = %d, want 7", v.Epoch())
	}
	if v.AdoptRing(next) {
		t.Fatal("same ring adopted twice")
	}
	if v.AdoptRing(desc) {
		t.Fatal("older ring adopted")
	}
}
