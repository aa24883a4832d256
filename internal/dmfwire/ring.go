package dmfwire

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"strconv"
	"strings"
)

// A Ring descriptor names the peer daemons, the replication factor, and the
// hash-ring parameters, and an Epoch versions the whole assignment. Every
// daemon in a cluster is started with a descriptor (-peers/-replicas/...)
// and serves its current one at GET /api/v1/cluster, so clients can
// cross-check that all peers agree on one epoch before routing writes.
// Placement is versioned but static per epoch — there is no consensus
// protocol. What is dynamic is propagation: daemons gossip a Membership
// message (see membership.go) that carries the newest descriptor along
// with per-peer liveness, so an epoch bump announced to one seed reaches
// every member and every connected client without restarts.

// RingMagicV2 opens the first line of an encoded ring descriptor. The 2 is
// the placement version: FNV-1a followed by a splitmix64-style finalizing
// mixer (see cluster.NewRing). It is the only one this build speaks.
const RingMagicV2 = "%DMFRING2"

// ringRetired is how a version 1 descriptor — raw FNV-1a placement, written
// by earlier releases under another magic — is refused: by name, pointing at
// the one place that says what to do about it.
const ringRetired = `ring version 1 is no longer spoken: see "Migrating from ring v1" in docs/CLUSTER.md`

// RingContentType is the media type GET /api/v1/cluster answers with.
const RingContentType = "application/x-dmfring"

// Generous upper bounds on descriptor shape: they exist to reject
// adversarial inputs cheaply, not to constrain real deployments.
const (
	// MaxRingPeers bounds cluster membership.
	MaxRingPeers = 256
	// MaxRingVNodes bounds virtual nodes per peer.
	MaxRingVNodes = 1 << 14
)

// ErrRing marks a malformed ring descriptor: every DecodeRing failure and
// every Validate failure wraps it, so callers can distinguish "bad
// descriptor" from transport errors with errors.Is.
var ErrRing = errors.New("malformed ring descriptor")

// Ring is the static description of a perfdmfd cluster: the peer base URLs,
// the replication factor, the consistent-hash parameters, and the epoch
// that versions this assignment. It is the body of GET /api/v1/cluster
// (text-encoded, see EncodeRing) and the input to cluster.NewRing.
type Ring struct {
	// Version names the placement hash. There is one, version 2; 0 means
	// the same and Canonical spells it 2. Version 1 is refused.
	Version int `json:"version,omitempty"`
	// Epoch versions the membership; peers only cooperate when their
	// epochs agree. Must be >= 1.
	Epoch uint64 `json:"epoch"`
	// Replicas is how many distinct peers hold each trial (R). Must be
	// between 1 and len(Peers).
	Replicas int `json:"replicas"`
	// VNodes is the number of virtual nodes each peer contributes to the
	// hash ring; more virtual nodes smooth the key distribution.
	VNodes int `json:"vnodes"`
	// Seed feeds the placement hash, so distinct clusters sharing peers
	// can be given independent layouts.
	Seed uint64 `json:"seed"`
	// Peers are the daemon base URLs (e.g. "http://host1:7360"), sorted
	// and duplicate-free.
	Peers []string `json:"peers"`
}

// Canonical returns a copy with the peer list sorted and deduplicated and
// the version normalized (0 → 2) — the form EncodeRing writes and
// DecodeRing requires, so that any two processes given the same membership
// produce byte-identical descriptors.
func (r Ring) Canonical() Ring {
	peers := append([]string(nil), r.Peers...)
	sort.Strings(peers)
	peers = slicesCompact(peers)
	r.Peers = peers
	if r.Version == 0 {
		r.Version = 2
	}
	return r
}

// slicesCompact removes adjacent duplicates from a sorted slice.
func slicesCompact(s []string) []string {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// Validate checks descriptor invariants; failures wrap ErrRing.
func (r Ring) Validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("dmfwire: %w: %s", ErrRing, fmt.Sprintf(format, args...))
	}
	switch r.Version {
	case 0, 2:
	case 1:
		return fail("%s", ringRetired)
	default:
		return fail("unknown version %d", r.Version)
	}
	if r.Epoch < 1 {
		return fail("epoch %d < 1", r.Epoch)
	}
	if len(r.Peers) == 0 {
		return fail("no peers")
	}
	if len(r.Peers) > MaxRingPeers {
		return fail("%d peers exceeds the %d cap", len(r.Peers), MaxRingPeers)
	}
	if r.Replicas < 1 || r.Replicas > len(r.Peers) {
		return fail("replicas %d out of range [1, %d peers]", r.Replicas, len(r.Peers))
	}
	if r.VNodes < 1 || r.VNodes > MaxRingVNodes {
		return fail("vnodes %d out of range [1, %d]", r.VNodes, MaxRingVNodes)
	}
	for i, p := range r.Peers {
		if p == "" {
			return fail("peer %d is empty", i)
		}
		if strings.ContainsAny(p, " \t\r\n") {
			return fail("peer %q contains whitespace", p)
		}
		if i > 0 {
			switch {
			case p == r.Peers[i-1]:
				return fail("duplicate peer %q", p)
			case p < r.Peers[i-1]:
				return fail("peers are not sorted (%q after %q)", p, r.Peers[i-1])
			}
		}
	}
	return nil
}

var ringCRCTable = crc32.MakeTable(crc32.Castagnoli)

// ringPayload is the checksummed portion of the encoding: the header fields
// and the peer lines, without the magic or the checksum itself. The
// placement version participates in the checksum as a "version=2" prefix, so
// a version 1 descriptor with its magic edited does not pass for this one.
func ringPayload(r Ring) []byte {
	var b bytes.Buffer
	b.WriteString("version=2 ")
	fmt.Fprintf(&b, "epoch=%d replicas=%d vnodes=%d seed=%d peers=%d\n",
		r.Epoch, r.Replicas, r.VNodes, r.Seed, len(r.Peers))
	for _, p := range r.Peers {
		b.WriteString(p)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// EncodeRing renders the descriptor in its canonical text form:
//
//	%DMFRING2 epoch=1 replicas=2 vnodes=64 seed=0 peers=3 crc32c=xxxxxxxx
//	http://host1:7360
//	http://host2:7360
//	http://host3:7360
//
// The CRC32-C covers the header fields and the peer lines, so a truncated
// or hand-edited descriptor is rejected rather than silently reshaping the
// cluster. The peer list is canonicalized (sorted, deduplicated) first;
// the same membership always encodes to the same bytes.
func EncodeRing(r Ring) ([]byte, error) {
	r = r.Canonical()
	if err := r.Validate(); err != nil {
		return nil, err
	}
	payload := ringPayload(r)
	crc := crc32.Checksum(payload, ringCRCTable)
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s epoch=%d replicas=%d vnodes=%d seed=%d peers=%d crc32c=%08x\n",
		RingMagicV2, r.Epoch, r.Replicas, r.VNodes, r.Seed, len(r.Peers), crc)
	for _, p := range r.Peers {
		b.WriteString(p)
		b.WriteByte('\n')
	}
	return b.Bytes(), nil
}

// textFormat parses what the checksummed text records (ring, membership,
// hint) have in common — a header line
//
//	<magic> name=value ... crc32c=xxxxxxxx
//
// whose checksum covers a payload rebuilt from the decoded value — wrapping
// every failure in the record's own sentinel.
type textFormat struct{ sentinel error }

var (
	ringText       = textFormat{ErrRing}
	membershipText = textFormat{ErrMembership}
	hintText       = textFormat{ErrHint}
)

func (f textFormat) errorf(format string, args ...any) error {
	return fmt.Errorf("dmfwire: %w: "+format, append([]any{f.sentinel}, args...)...)
}

// field parses one "name=value" token, insisting on the exact field name.
func (f textFormat) field(tok, name string) (string, error) {
	val, ok := strings.CutPrefix(tok, name+"=")
	if !ok {
		return "", f.errorf("want field %q, got %q", name, tok)
	}
	return val, nil
}

func (f textFormat) uint(tok, name string) (uint64, error) {
	val, err := f.field(tok, name)
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseUint(val, 10, 64)
	if err != nil {
		return 0, f.errorf("field %s: %v", name, err)
	}
	return n, nil
}

// header splits the header line off data, checks its field count and that
// it opens with magic, and parses the closing crc32c field. toks holds every
// token of the line, the magic first.
func (f textFormat) header(data []byte, fields int, magic string) (toks []string, crc uint32, rest []byte, err error) {
	head, rest, ok := bytes.Cut(data, []byte{'\n'})
	if !ok {
		return nil, 0, nil, f.errorf("missing header line")
	}
	toks = strings.Split(string(head), " ")
	if len(toks) != fields {
		return nil, 0, nil, f.errorf("header has %d fields, want %d", len(toks), fields)
	}
	if toks[0] != magic {
		return nil, 0, nil, f.errorf("bad magic %q", toks[0])
	}
	crcStr, err := f.field(toks[fields-1], "crc32c")
	if err != nil {
		return nil, 0, nil, err
	}
	want, err := strconv.ParseUint(crcStr, 16, 32)
	if err != nil || len(crcStr) != 8 {
		return nil, 0, nil, f.errorf("bad crc32c %q", crcStr)
	}
	return toks, uint32(want), rest, nil
}

// verify compares the header's checksum with that of the rebuilt payload.
func (f textFormat) verify(want uint32, payload []byte) error {
	if got := crc32.Checksum(payload, ringCRCTable); got != want {
		return f.errorf("crc32c mismatch (header %08x, payload %08x)", want, got)
	}
	return nil
}

// DecodeRing parses an encoded descriptor, verifying the magic, the field
// layout, the declared peer count, and the CRC32-C, then validating the
// result (which also insists the peer list arrives in canonical order).
// Every failure wraps ErrRing; a descriptor of the retired version 1 is
// refused by name. A successful decode re-encodes to the exact input bytes.
func DecodeRing(data []byte) (Ring, error) {
	if bytes.HasPrefix(data, []byte("%DMFRING1")) {
		return Ring{}, ringText.errorf("%s", ringRetired)
	}
	toks, wantCRC, rest, err := ringText.header(data, 7, RingMagicV2)
	if err != nil {
		return Ring{}, err
	}
	r := Ring{Version: 2}
	if r.Epoch, err = ringText.uint(toks[1], "epoch"); err != nil {
		return Ring{}, err
	}
	replicas, err := ringText.uint(toks[2], "replicas")
	if err != nil {
		return Ring{}, err
	}
	vnodes, err := ringText.uint(toks[3], "vnodes")
	if err != nil {
		return Ring{}, err
	}
	if r.Seed, err = ringText.uint(toks[4], "seed"); err != nil {
		return Ring{}, err
	}
	nPeers, err := ringText.uint(toks[5], "peers")
	if err != nil {
		return Ring{}, err
	}
	if replicas > MaxRingPeers || vnodes > MaxRingVNodes || nPeers > MaxRingPeers {
		return Ring{}, fmt.Errorf("dmfwire: %w: header fields out of range", ErrRing)
	}
	r.Replicas = int(replicas)
	r.VNodes = int(vnodes)

	r.Peers = make([]string, 0, nPeers)
	for i := uint64(0); i < nPeers; i++ {
		line, tail, ok := bytes.Cut(rest, []byte{'\n'})
		if !ok {
			return Ring{}, fmt.Errorf("dmfwire: %w: truncated after %d of %d peers", ErrRing, i, nPeers)
		}
		r.Peers = append(r.Peers, string(line))
		rest = tail
	}
	if len(rest) != 0 {
		return Ring{}, fmt.Errorf("dmfwire: %w: %d trailing bytes after peer list", ErrRing, len(rest))
	}
	if err := ringText.verify(wantCRC, ringPayload(r)); err != nil {
		return Ring{}, err
	}
	if err := r.Validate(); err != nil {
		return Ring{}, err
	}
	return r, nil
}

// RepairReport is the result of one cluster.Rebalance anti-entropy pass:
// what the scan saw, what it copied to restore placement and replication,
// and what went wrong. The gossip leader's repair loop logs it.
type RepairReport struct {
	// Epoch is the ring epoch the pass ran under.
	Epoch uint64 `json:"epoch"`
	// Peers is the cluster size; PeersScanned counts the peers whose
	// listings were reachable during the scan.
	Peers        int `json:"peers"`
	PeersScanned int `json:"peers_scanned"`
	// Trials counts the distinct trial coordinates seen cluster-wide.
	Trials int `json:"trials"`
	// Copied counts trial copies written to owners that were missing them
	// (under-replicated or misplaced data); Copies lists them as
	// "app/experiment/trial -> peer".
	Copied int      `json:"copied"`
	Copies []string `json:"copies,omitempty"`
	// Removed counts misplaced copies deleted from non-owners after every
	// owner was confirmed to hold the trial; Removals lists them.
	Removed  int      `json:"removed"`
	Removals []string `json:"removals,omitempty"`
	// Errors lists per-trial or per-peer failures; the pass continues past
	// them and reports what it could not fix.
	Errors []string `json:"errors,omitempty"`
}

// Clean reports whether the pass completed with nothing left to fix: every
// peer scanned and no errors.
func (r *RepairReport) Clean() bool {
	return r.PeersScanned == r.Peers && len(r.Errors) == 0
}
