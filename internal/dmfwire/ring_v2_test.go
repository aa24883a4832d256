package dmfwire

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// migrationNote is the docs/CLUSTER.md section every refusal of a retired
// ring version names.
const migrationNote = "Migrating from ring v1"

// v1ThreePeers is what a release that spoke ring version 1 served at
// GET /api/v1/cluster for this membership, checksum included.
const v1ThreePeers = "%DMFRING1 epoch=1 replicas=2 vnodes=64 seed=0 peers=3 crc32c=34e6d2dc\n" +
	"http://127.0.0.1:7461\nhttp://127.0.0.1:7462\nhttp://127.0.0.1:7463\n"

func TestRingV2EncodeDecodeRoundTrip(t *testing.T) {
	for _, version := range []int{0, 2} {
		r := testRing()
		r.Version = version
		data, err := EncodeRing(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, []byte(RingMagicV2+" ")) {
			t.Fatalf("Version %d does not open with %s: %q", version, RingMagicV2, data)
		}
		back, err := DecodeRing(data)
		if err != nil {
			t.Fatal(err)
		}
		if back.Version != 2 {
			t.Fatalf("Version %d came back as %+v", version, back)
		}
		again, err := EncodeRing(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("re-encoding drifted:\n%s\nvs\n%s", data, again)
		}
	}
}

// TestRingEncodingPinned pins the bytes of the one spelling, as the release
// before this one wrote them for Version 2: running clusters compare
// descriptors byte for byte, so a rolling restart must not see them move.
func TestRingEncodingPinned(t *testing.T) {
	data, err := EncodeRing(Ring{
		Epoch: 1, Replicas: 2, VNodes: 64, Seed: 0,
		Peers: []string{"http://127.0.0.1:7461", "http://127.0.0.1:7462", "http://127.0.0.1:7463"},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "%DMFRING2 epoch=1 replicas=2 vnodes=64 seed=0 peers=3 crc32c=ac245a62\n" +
		"http://127.0.0.1:7461\nhttp://127.0.0.1:7462\nhttp://127.0.0.1:7463\n"
	if string(data) != want {
		t.Fatalf("encoding drifted:\n%q\nwant\n%q", data, want)
	}
}

// TestRingV1RefusedByName: the retired version is refused wherever it can
// arrive — a descriptor built with Version 1, the bytes an older member
// serves, and a gossip message carrying them — and each refusal says where
// the way out is written down.
func TestRingV1RefusedByName(t *testing.T) {
	named := func(err, sentinel error) bool {
		return errors.Is(err, sentinel) && strings.Contains(err.Error(), migrationNote)
	}
	r := testRing()
	r.Version = 1
	if err := r.Validate(); !named(err, ErrRing) {
		t.Fatalf("Validate(Version 1) = %v", err)
	}
	if _, err := EncodeRing(r); !named(err, ErrRing) {
		t.Fatalf("EncodeRing(Version 1) = %v", err)
	}
	if _, err := DecodeRing([]byte(v1ThreePeers)); !named(err, ErrRing) {
		t.Fatalf("DecodeRing(%%DMFRING1) = %v", err)
	}

	// A membership message as an older member sends it: a valid outer
	// checksum over a view and a version 1 descriptor.
	m := Membership{From: "http://127.0.0.1:7461"}
	for _, p := range []string{"http://127.0.0.1:7461", "http://127.0.0.1:7462", "http://127.0.0.1:7463"} {
		m.Peers = append(m.Peers, PeerStatus{Peer: p, Incarnation: 1, State: StateAlive})
	}
	var b bytes.Buffer
	b.WriteString(MembershipMagic + " from=" + m.From + " peers=3 crc32c=" + crcHex(membershipPayload(m, []byte(v1ThreePeers))) + "\n")
	for _, p := range m.Peers {
		b.WriteString(p.Peer + " inc=1 state=alive\n")
	}
	b.WriteString(v1ThreePeers)
	if _, err := DecodeMembership(b.Bytes()); !named(err, ErrMembership) {
		t.Fatalf("DecodeMembership(embedded %%DMFRING1) = %v", err)
	}
	m.Ring = r
	if err := m.Validate(); !named(err, ErrMembership) {
		t.Fatalf("Membership.Validate(ring Version 1) = %v", err)
	}
}

// TestRingMagicSwapRejected: the placement version participates in the
// CRC, so a version 1 descriptor with only its magic edited does not pass
// for a version 2 one (which would reshuffle every key), and the reverse
// edit is refused like any other version 1 descriptor.
func TestRingMagicSwapRejected(t *testing.T) {
	swapped := strings.Replace(v1ThreePeers, "%DMFRING1", RingMagicV2, 1)
	if _, err := DecodeRing([]byte(swapped)); !errors.Is(err, ErrRing) {
		t.Fatalf("v1→v2 magic swap decoded without error: %v", err)
	}
	v2, err := EncodeRing(testRing())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRing(bytes.Replace(v2, []byte(RingMagicV2), []byte("%DMFRING1"), 1)); !errors.Is(err, ErrRing) {
		t.Fatalf("v2→v1 magic swap decoded without error: %v", err)
	}
}

func TestRingVersionValidate(t *testing.T) {
	r := testRing()
	for _, bad := range []int{-1, 1, 3} {
		r.Version = bad
		if err := r.Validate(); !errors.Is(err, ErrRing) {
			t.Fatalf("version %d accepted: %v", bad, err)
		}
	}
	if got := (Ring{}).Canonical().Version; got != 2 {
		t.Fatalf("Canonical did not normalize version: %d", got)
	}
}
