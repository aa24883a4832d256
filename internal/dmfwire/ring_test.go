package dmfwire

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"
)

// crcHex checksums a payload the way the encoder does, for tests that
// hand-build descriptors.
func crcHex(payload []byte) string {
	return fmt.Sprintf("%08x", crc32.Checksum(payload, ringCRCTable))
}

func testRing() Ring {
	return Ring{
		Epoch:    3,
		Replicas: 2,
		VNodes:   64,
		Seed:     7,
		Peers: []string{
			"http://host2:7360",
			"http://host1:7360",
			"http://host3:7360",
		},
	}
}

func TestRingEncodeDecodeRoundTrip(t *testing.T) {
	data, err := EncodeRing(testRing())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte(RingMagicV2+" ")) {
		t.Fatalf("encoding does not open with the magic: %q", data)
	}
	back, err := DecodeRing(data)
	if err != nil {
		t.Fatal(err)
	}
	// The peer list comes back canonicalized (sorted).
	want := []string{"http://host1:7360", "http://host2:7360", "http://host3:7360"}
	if len(back.Peers) != len(want) {
		t.Fatalf("peers = %v, want %v", back.Peers, want)
	}
	for i := range want {
		if back.Peers[i] != want[i] {
			t.Fatalf("peers = %v, want %v", back.Peers, want)
		}
	}
	if back.Epoch != 3 || back.Replicas != 2 || back.VNodes != 64 || back.Seed != 7 {
		t.Fatalf("fields did not round-trip: %+v", back)
	}
	// Canonical form is a fixed point: re-encoding yields identical bytes.
	again, err := EncodeRing(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatalf("re-encoding drifted:\n%s\nvs\n%s", data, again)
	}
}

func TestRingEncodeCanonicalizesAndDeduplicates(t *testing.T) {
	r := testRing()
	r.Peers = append(r.Peers, "http://host1:7360") // duplicate
	data, err := EncodeRing(r)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeRing(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Peers) != 3 {
		t.Fatalf("duplicate peer survived encoding: %v", back.Peers)
	}
}

func TestRingValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Ring)
	}{
		{"zero epoch", func(r *Ring) { r.Epoch = 0 }},
		{"no peers", func(r *Ring) { r.Peers = nil }},
		{"replicas zero", func(r *Ring) { r.Replicas = 0 }},
		{"replicas exceed peers", func(r *Ring) { r.Replicas = 4 }},
		{"vnodes zero", func(r *Ring) { r.VNodes = 0 }},
		{"vnodes huge", func(r *Ring) { r.VNodes = MaxRingVNodes + 1 }},
		{"empty peer", func(r *Ring) { r.Peers[0] = "" }},
		{"whitespace peer", func(r *Ring) { r.Peers[0] = "http://a b" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := testRing().Canonical()
			tc.mutate(&r)
			err := r.Validate()
			if err == nil {
				t.Fatal("Validate accepted a bad descriptor")
			}
			if !errors.Is(err, ErrRing) {
				t.Fatalf("error does not wrap ErrRing: %v", err)
			}
		})
	}
}

func TestRingDecodeRejectsDamage(t *testing.T) {
	good, err := EncodeRing(testRing())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"no header newline", []byte(RingMagicV2 + " epoch=1")},
		{"bad magic", bytes.Replace(good, []byte(RingMagicV2), []byte("%DMFRING3"), 1)},
		{"truncated peers", good[:len(good)-5]},
		{"trailing bytes", append(append([]byte{}, good...), "extra\n"...)},
		{"flipped peer byte", bytes.Replace(good, []byte("host1"), []byte("host9"), 1)},
		{"bad crc chars", bytes.Replace(good, []byte("crc32c="), []byte("crc32c=zz"), 1)},
		{"field renamed", bytes.Replace(good, []byte("epoch="), []byte("epoxy="), 1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeRing(tc.data); !errors.Is(err, ErrRing) {
				t.Fatalf("DecodeRing = %v, want ErrRing", err)
			}
		})
	}
}

func TestRingDecodeRejectsNonCanonicalOrder(t *testing.T) {
	// Hand-build an encoding whose peers are unsorted but whose CRC is
	// correct: the decoder must still reject it, so that one membership
	// has exactly one wire form.
	r := testRing().Canonical()
	r.Peers[0], r.Peers[1] = r.Peers[1], r.Peers[0]
	payload := ringPayload(r)
	var b strings.Builder
	b.WriteString(RingMagicV2)
	b.WriteString(" epoch=3 replicas=2 vnodes=64 seed=7 peers=3 crc32c=")
	crc := crcHex(payload)
	b.WriteString(crc)
	b.WriteString("\n")
	for _, p := range r.Peers {
		b.WriteString(p + "\n")
	}
	if _, err := DecodeRing([]byte(b.String())); !errors.Is(err, ErrRing) {
		t.Fatalf("DecodeRing accepted unsorted peers: %v", err)
	}
}

func TestRepairReportClean(t *testing.T) {
	rep := &RepairReport{Peers: 3, PeersScanned: 3}
	if !rep.Clean() {
		t.Fatal("fully scanned, error-free report should be clean")
	}
	rep.Errors = append(rep.Errors, "x")
	if rep.Clean() {
		t.Fatal("report with errors should not be clean")
	}
	rep = &RepairReport{Peers: 3, PeersScanned: 2}
	if rep.Clean() {
		t.Fatal("report with an unscanned peer should not be clean")
	}
}
