package cluster

import (
	"fmt"
	"sync"
	"time"

	"perfknow/internal/dmfwire"
)

// View is one member's live picture of the cluster: per peer, an
// incarnation number and a liveness state (alive → suspect → dead), plus
// the ring descriptor the member currently holds. It is the SWIM-style
// core of the gossip layer — pure state machine, no I/O — so the merge and
// refutation rules can be tested exhaustively without a network.
//
// Transitions:
//   - ObserveFailure counts missed probes; SuspectAfter misses turn an
//     alive peer suspect.
//   - Tick expires suspicions: suspect for longer than SuspectTimeout
//     turns dead.
//   - ObserveSuccess is first-hand evidence of life and clears suspicion
//     outright.
//   - Merge folds in a peer's view second-hand: for each peer the higher
//     incarnation wins; at equal incarnations the worse state wins (dead >
//     suspect > alive), so pessimism propagates until refuted.
//   - A member that sees ITSELF suspected or dead in merged gossip refutes:
//     it bumps its own incarnation, which outranks every copy of the rumor.
//
// A dead peer that comes back is not special-cased: its daemon answers the
// next probe (ObserveSuccess) or gossips a self-entry at an incarnation it
// bumped on refutation, either of which revives it.
type View struct {
	mu   sync.Mutex
	self string
	desc dmfwire.Ring
	// peers holds one entry per ring peer, including self.
	peers map[string]*peerEntry

	suspectAfter   int
	suspectTimeout time.Duration
	clock          func() time.Time
}

type peerEntry struct {
	incarnation uint64
	state       dmfwire.PeerState
	// since is when state last changed (drives the suspect timeout).
	since time.Time
	// missed counts consecutive failed probes while alive.
	missed int
}

// ViewConfig tunes the failure detector.
type ViewConfig struct {
	// Self is this member's base URL. It does not have to appear in the
	// ring (an observer client may keep a view too), but for a daemon it
	// normally does.
	Self string
	// Ring is the starting descriptor.
	Ring dmfwire.Ring
	// SuspectAfter is how many consecutive missed probes turn an alive
	// peer suspect (default 3).
	SuspectAfter int
	// SuspectTimeout is how long a peer stays suspect before it is
	// declared dead (default 10s).
	SuspectTimeout time.Duration
}

// DefaultSuspectAfter and DefaultSuspectTimeout are the detector defaults:
// three missed probes to suspect, ten seconds of suspicion to dead.
const (
	DefaultSuspectAfter   = 3
	DefaultSuspectTimeout = 10 * time.Second
)

// NewView builds a view in which every ring peer starts alive at
// incarnation 0 — except self, which starts at incarnation 1 so that a
// restarted member immediately outranks stale rumors about its previous
// life.
func NewView(cfg ViewConfig) (*View, error) { return newView(cfg, productionEnv().now) }

// newView is NewView on a given clock (the agent's env).
func newView(cfg ViewConfig, clock func() time.Time) (*View, error) {
	desc := cfg.Ring.Canonical()
	if err := desc.Validate(); err != nil {
		return nil, err
	}
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: view needs a self URL")
	}
	v := &View{
		self:           cfg.Self,
		desc:           desc,
		peers:          make(map[string]*peerEntry, len(desc.Peers)),
		suspectAfter:   cfg.SuspectAfter,
		suspectTimeout: cfg.SuspectTimeout,
		clock:          clock,
	}
	if v.suspectAfter <= 0 {
		v.suspectAfter = DefaultSuspectAfter
	}
	if v.suspectTimeout <= 0 {
		v.suspectTimeout = DefaultSuspectTimeout
	}
	now := v.clock()
	for _, p := range desc.Peers {
		v.peers[p] = &peerEntry{state: dmfwire.StateAlive, since: now}
	}
	if e, ok := v.peers[cfg.Self]; ok {
		e.incarnation = 1
	}
	return v, nil
}

// Self returns this member's base URL.
func (v *View) Self() string { return v.self }

// Ring returns the descriptor the view currently holds.
func (v *View) Ring() dmfwire.Ring {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.desc
}

// Epoch returns the current descriptor's epoch.
func (v *View) Epoch() uint64 { return v.Ring().Epoch }

// State returns the current belief about one peer ("" if unknown).
func (v *View) State(peer string) dmfwire.PeerState {
	v.mu.Lock()
	defer v.mu.Unlock()
	if e, ok := v.peers[peer]; ok {
		return e.state
	}
	return ""
}

// Alive returns the ring peers currently believed alive, in canonical
// (sorted) order. Suspect peers are excluded: a suspect may well be alive,
// but routing new replicas at it would just re-route again.
func (v *View) Alive() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	var out []string
	for _, p := range v.desc.Peers {
		if v.peers[p].state == dmfwire.StateAlive {
			out = append(out, p)
		}
	}
	return out
}

// Snapshot renders the view as the gossip message this member sends.
func (v *View) Snapshot() dmfwire.Membership {
	v.mu.Lock()
	defer v.mu.Unlock()
	m := dmfwire.Membership{From: v.self, Ring: v.desc}
	for _, p := range v.desc.Peers {
		e := v.peers[p]
		m.Peers = append(m.Peers, dmfwire.PeerStatus{Peer: p, Incarnation: e.incarnation, State: e.state})
	}
	return m
}

// GossipView renders the view as the JSON body of
// GET /api/v1/cluster/gossip (hints-pending is filled in by the caller,
// which owns the hint store).
func (v *View) GossipView() dmfwire.GossipView {
	m := v.Snapshot()
	return dmfwire.GossipView{
		Self:  v.self,
		Epoch: m.Ring.Epoch,
		Peers: m.Peers,
	}
}

// ObserveSuccess records first-hand evidence that peer is up: suspicion
// and missed-probe counts clear immediately.
func (v *View) ObserveSuccess(peer string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	e, ok := v.peers[peer]
	if !ok {
		return
	}
	e.missed = 0
	if e.state != dmfwire.StateAlive {
		e.state = dmfwire.StateAlive
		e.since = v.clock()
	}
}

// ObserveFailure records a failed probe of peer; after SuspectAfter
// consecutive failures an alive peer turns suspect.
func (v *View) ObserveFailure(peer string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	e, ok := v.peers[peer]
	if !ok {
		return
	}
	e.missed++
	if e.state == dmfwire.StateAlive && e.missed >= v.suspectAfter {
		e.state = dmfwire.StateSuspect
		e.since = v.clock()
	}
}

// Tick advances time-driven transitions: suspects older than
// SuspectTimeout become dead. It returns the peers newly declared dead.
func (v *View) Tick() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	now := v.clock()
	var died []string
	for _, p := range v.desc.Peers {
		e := v.peers[p]
		if e.state == dmfwire.StateSuspect && now.Sub(e.since) >= v.suspectTimeout {
			e.state = dmfwire.StateDead
			e.since = now
			died = append(died, p)
		}
	}
	return died
}

// Merge folds a received membership message into the view and reports
// whether the ring descriptor changed (the sender carried a newer epoch,
// which the caller must propagate to its routing layer). Merge never
// errors: a message that decoded and validated is always safely mergeable.
func (v *View) Merge(m dmfwire.Membership) (ringChanged bool) {
	m = m.Canonical()
	v.mu.Lock()
	defer v.mu.Unlock()

	if m.Ring.Epoch > v.desc.Epoch {
		// Adopt the newer membership: keep what we know about retained
		// peers, meet new peers as alive, forget departed ones.
		now := v.clock()
		peers := make(map[string]*peerEntry, len(m.Ring.Peers))
		for _, p := range m.Ring.Peers {
			if e, ok := v.peers[p]; ok {
				peers[p] = e
			} else {
				peers[p] = &peerEntry{state: dmfwire.StateAlive, since: now}
			}
		}
		v.desc = m.Ring
		v.peers = peers
		ringChanged = true
	}

	for _, st := range m.Peers {
		e, ok := v.peers[st.Peer]
		if !ok {
			continue // about a peer not in our (possibly newer) ring
		}
		if st.Peer == v.self {
			// Refutation: a rumor says we are suspect or dead. We are
			// manifestly alive, so outrank it.
			if st.State != dmfwire.StateAlive && st.Incarnation >= e.incarnation {
				e.incarnation = st.Incarnation + 1
				e.state = dmfwire.StateAlive
				e.since = v.clock()
			}
			continue
		}
		switch {
		case st.Incarnation > e.incarnation:
			e.incarnation = st.Incarnation
			if st.State != e.state {
				e.state = st.State
				e.since = v.clock()
			}
			e.missed = 0
		case st.Incarnation == e.incarnation && st.State.Worse(e.state):
			e.state = st.State
			e.since = v.clock()
		}
	}
	return ringChanged
}

// AdoptRing installs a newer descriptor directly (the local daemon was
// told of an epoch bump, e.g. by an operator announce to this very node).
// Lower or equal epochs are ignored; the statuses follow the same
// keep/meet/forget rules as Merge.
func (v *View) AdoptRing(desc dmfwire.Ring) bool {
	m := dmfwire.Membership{From: v.self, Ring: desc}
	for _, p := range desc.Canonical().Peers {
		m.Peers = append(m.Peers, dmfwire.PeerStatus{Peer: p, State: dmfwire.StateAlive})
	}
	return v.Merge(m)
}

// counts tallies states for the metrics gauges.
func (v *View) counts() (alive, suspect, dead int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, p := range v.desc.Peers {
		switch v.peers[p].state {
		case dmfwire.StateAlive:
			alive++
		case dmfwire.StateSuspect:
			suspect++
		case dmfwire.StateDead:
			dead++
		}
	}
	return
}
