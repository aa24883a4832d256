package dmfwire

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"strings"
)

// Gossip-style membership: each daemon keeps a view of every ring peer —
// an incarnation number plus a liveness state — and periodically exchanges
// that view with a random peer over POST /api/v1/cluster/gossip. The
// Membership message is the unit of exchange. It carries the sender's ring
// descriptor too, so an epoch bump announced to a single seed node rides
// the same channel to every member and every connected client.
//
// Merge rules (implemented by cluster.View, stated here because they shape
// the wire format): for one peer, the higher incarnation always wins; at
// equal incarnations the worse state wins (dead > suspect > alive). Only a
// node itself may raise its own incarnation — it does so to refute a
// suspicion it observes about itself — which is what keeps rumors of a
// node's death from outliving the node.

// MembershipMagic opens the first line of an encoded membership message.
const MembershipMagic = "%DMFMEM1"

// MembershipContentType is the media type the gossip exchange speaks.
const MembershipContentType = "application/x-dmfmem"

// ErrMembership marks a malformed membership message: every
// DecodeMembership failure and every Membership.Validate failure wraps it.
var ErrMembership = errors.New("malformed membership message")

// PeerState is a peer's liveness as seen by some member: alive, suspect
// (probes are failing but the timeout has not expired), or dead. The zero
// value is not valid; states are compared by Worse, never by string order.
type PeerState string

const (
	// StateAlive: the peer answered a recent probe (or refuted a suspicion).
	StateAlive PeerState = "alive"
	// StateSuspect: enough consecutive probes failed; the peer may be slow,
	// partitioned, or dead. Suspicion escalates to dead after a timeout
	// unless the peer refutes it with a higher incarnation.
	StateSuspect PeerState = "suspect"
	// StateDead: the suspicion timeout expired. Hinted writes divert away
	// from the peer and the repair loop re-replicates its data.
	StateDead PeerState = "dead"
)

// rank orders states for merging; -1 for invalid states.
func (s PeerState) rank() int {
	switch s {
	case StateAlive:
		return 0
	case StateSuspect:
		return 1
	case StateDead:
		return 2
	}
	return -1
}

// Valid reports whether s is one of the three defined states.
func (s PeerState) Valid() bool { return s.rank() >= 0 }

// Worse reports whether s is a worse (more failed) state than t. Used to
// break incarnation ties when merging views: pessimism propagates, and a
// node clears it by refuting with a higher incarnation.
func (s PeerState) Worse(t PeerState) bool { return s.rank() > t.rank() }

// PeerStatus is one peer's liveness entry in a membership view. The JSON
// form is what GET /api/v1/cluster/gossip returns (inside a GossipView)
// for operators and CI assertions; the text form rides inside an encoded
// Membership.
type PeerStatus struct {
	// Peer is the daemon base URL, matching the ring descriptor's peer list.
	Peer string `json:"peer"`
	// Incarnation is the peer's self-asserted liveness version. Only the
	// peer itself raises it; everyone else just repeats the highest seen.
	Incarnation uint64 `json:"incarnation"`
	// State is the sender's current belief about the peer.
	State PeerState `json:"state"`
}

// Membership is one gossip exchange's payload: who is speaking, the ring
// descriptor they currently hold, and their view of every ring peer.
type Membership struct {
	// From is the sender's base URL. Usually a ring peer, but an
	// administrative client announcing an epoch bump may speak too, so From
	// is not required to appear in the peer list.
	From string `json:"from"`
	// Ring is the sender's current descriptor. Receivers adopt it when its
	// epoch is newer than their own; that is how membership changes spread.
	Ring Ring `json:"ring"`
	// Peers is the sender's view, sorted by peer URL, exactly one entry per
	// ring peer.
	Peers []PeerStatus `json:"peers"`
}

// Canonical returns a copy with the ring canonicalized and the view sorted
// by peer URL — the form EncodeMembership writes and DecodeMembership
// requires.
func (m Membership) Canonical() Membership {
	m.Ring = m.Ring.Canonical()
	peers := append([]PeerStatus(nil), m.Peers...)
	sort.Slice(peers, func(i, j int) bool { return peers[i].Peer < peers[j].Peer })
	m.Peers = peers
	return m
}

// Validate checks message invariants; failures wrap ErrMembership. The
// view must cover the ring's peer set exactly — same URLs, same order, no
// extras and no gaps — so a decoded message can be merged without any
// reconciliation of "who is this entry even about".
func (m Membership) Validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("dmfwire: %w: %s", ErrMembership, fmt.Sprintf(format, args...))
	}
	if m.From == "" {
		return fail("empty from")
	}
	if strings.ContainsAny(m.From, " \t\r\n") {
		return fail("from %q contains whitespace", m.From)
	}
	if err := m.Ring.Validate(); err != nil {
		return fail("ring: %v", err)
	}
	if len(m.Peers) != len(m.Ring.Peers) {
		return fail("view has %d entries for %d ring peers", len(m.Peers), len(m.Ring.Peers))
	}
	for i, p := range m.Peers {
		if p.Peer != m.Ring.Peers[i] {
			return fail("view entry %d is %q, want ring peer %q", i, p.Peer, m.Ring.Peers[i])
		}
		if !p.State.Valid() {
			return fail("peer %q has unknown state %q", p.Peer, p.State)
		}
	}
	return nil
}

// membershipPayload is the checksummed portion: the header fields, the
// view lines, and the embedded ring descriptor (which carries its own
// inner CRC), without the magic or the outer checksum.
func membershipPayload(m Membership, ring []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "from=%s peers=%d\n", m.From, len(m.Peers))
	for _, p := range m.Peers {
		fmt.Fprintf(&b, "%s inc=%d state=%s\n", p.Peer, p.Incarnation, p.State)
	}
	b.Write(ring)
	return b.Bytes()
}

// EncodeMembership renders the message in its canonical text form:
//
//	%DMFMEM1 from=http://a:7360 peers=3 crc32c=xxxxxxxx
//	http://a:7360 inc=4 state=alive
//	http://b:7360 inc=2 state=suspect
//	http://c:7360 inc=1 state=dead
//	%DMFRING2 epoch=2 replicas=2 vnodes=64 seed=0 peers=3 crc32c=xxxxxxxx
//	http://a:7360
//	http://b:7360
//	http://c:7360
//
// The outer CRC32-C covers the header fields, the view lines and the
// embedded ring bytes; the same view always encodes to the same bytes.
func EncodeMembership(m Membership) ([]byte, error) {
	m = m.Canonical()
	if err := m.Validate(); err != nil {
		return nil, err
	}
	ring, err := EncodeRing(m.Ring)
	if err != nil {
		return nil, err
	}
	payload := membershipPayload(m, ring)
	crc := crc32.Checksum(payload, ringCRCTable)
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s from=%s peers=%d crc32c=%08x\n", MembershipMagic, m.From, len(m.Peers), crc)
	for _, p := range m.Peers {
		fmt.Fprintf(&b, "%s inc=%d state=%s\n", p.Peer, p.Incarnation, p.State)
	}
	b.Write(ring)
	return b.Bytes(), nil
}

// DecodeMembership parses an encoded message, verifying the magic, the
// field layout, the declared view size, the outer CRC32-C and the embedded
// ring, then validating the result. Every failure wraps ErrMembership
// (ring failures are wrapped in it too). A successful decode re-encodes to
// the exact input bytes.
func DecodeMembership(data []byte) (Membership, error) {
	toks, wantCRC, rest, err := membershipText.header(data, 4, MembershipMagic)
	if err != nil {
		return Membership{}, err
	}
	var m Membership
	if m.From, err = membershipText.field(toks[1], "from"); err != nil {
		return Membership{}, err
	}
	nPeers, err := membershipText.uint(toks[2], "peers")
	if err != nil {
		return Membership{}, err
	}
	if nPeers > MaxRingPeers {
		return Membership{}, fmt.Errorf("dmfwire: %w: %d view entries exceeds the %d cap", ErrMembership, nPeers, MaxRingPeers)
	}

	m.Peers = make([]PeerStatus, 0, nPeers)
	for i := uint64(0); i < nPeers; i++ {
		line, tail, ok := bytes.Cut(rest, []byte{'\n'})
		if !ok {
			return Membership{}, fmt.Errorf("dmfwire: %w: truncated after %d of %d view entries", ErrMembership, i, nPeers)
		}
		parts := strings.Split(string(line), " ")
		if len(parts) != 3 {
			return Membership{}, fmt.Errorf("dmfwire: %w: view entry %d has %d fields, want 3", ErrMembership, i, len(parts))
		}
		var p PeerStatus
		p.Peer = parts[0]
		if p.Incarnation, err = membershipText.uint(parts[1], "inc"); err != nil {
			return Membership{}, err
		}
		state, err := membershipText.field(parts[2], "state")
		if err != nil {
			return Membership{}, err
		}
		p.State = PeerState(state)
		m.Peers = append(m.Peers, p)
		rest = tail
	}
	if err := membershipText.verify(wantCRC, membershipPayload(m, rest)); err != nil {
		return Membership{}, err
	}
	if m.Ring, err = DecodeRing(rest); err != nil {
		return Membership{}, fmt.Errorf("dmfwire: %w: %v", ErrMembership, err)
	}
	if err := m.Validate(); err != nil {
		return Membership{}, err
	}
	return m, nil
}

// GossipView is the JSON body of GET /api/v1/cluster/gossip: a daemon's
// live view of the cluster, for operators, CI assertions and debugging.
// The machine-to-machine exchange uses the text Membership encoding; this
// is the human-readable twin.
type GossipView struct {
	// Self is the daemon's own base URL within the ring.
	Self string `json:"self"`
	// Epoch identifies the descriptor the daemon currently holds.
	Epoch uint64 `json:"epoch"`
	// Peers is the view, sorted by peer URL.
	Peers []PeerStatus `json:"peers"`
	// HintsPending counts durable hinted-handoff records waiting for their
	// owner to come back (the cluster_hints_pending gauge).
	HintsPending int `json:"hints_pending"`
}

// AnnounceResponse is the JSON body answering POST /api/v1/cluster (ring
// announce): whether the daemon adopted the posted descriptor and the
// epoch it holds afterwards. Adopted=false with a matching epoch simply
// means the daemon already heard the news via gossip.
type AnnounceResponse struct {
	Adopted bool   `json:"adopted"`
	Epoch   uint64 `json:"epoch"`
}
