package dmfwire

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeMembership hardens the gossip decoder: a membership message
// arrives from whatever answers POST /api/v1/cluster/gossip, so any byte
// sequence must either decode into a valid, canonical Membership or fail
// with ErrMembership — never panic, hang, or allocate proportionally to a
// lying count field.
func FuzzDecodeMembership(f *testing.F) {
	if data, err := EncodeMembership(testMembership()); err == nil {
		f.Add(data)
	}
	f.Add([]byte("%DMFMEM1 from=http://a peers=1 crc32c=00000000\nhttp://a inc=1 state=alive\n%DMFRING1 epoch=1 replicas=1 vnodes=1 seed=0 peers=1 crc32c=00000000\nhttp://a\n"))
	f.Add([]byte("%DMFMEM1 from=http://a peers=999999999 crc32c=00000000\n"))
	f.Add([]byte("%DMFMEM1\n"))
	f.Add([]byte("%DMFRING1 epoch=1 replicas=1 vnodes=1 seed=0 peers=1 crc32c=00000000\nhttp://a\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMembership(data)
		if bytes.Contains(data, []byte("\n%DMFRING1 ")) && err == nil {
			t.Fatal("a message carrying a version 1 descriptor was accepted")
		}
		if err != nil {
			if !errors.Is(err, ErrMembership) {
				t.Fatalf("decode error does not wrap ErrMembership: %v", err)
			}
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("decoded membership fails validation: %v", err)
		}
		again, err := EncodeMembership(m)
		if err != nil {
			t.Fatalf("decoded membership fails re-encoding: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("decode/encode round-trip changed the bytes:\n%q\nvs\n%q", data, again)
		}
	})
}

// FuzzDecodeHint hardens the hinted-handoff record decoder: hint files are
// read back from disk after arbitrary crashes, so torn, truncated or
// corrupted records must fail with ErrHint rather than replaying garbage
// to a recovered peer.
func FuzzDecodeHint(f *testing.F) {
	if data, err := EncodeHint(testHint()); err == nil {
		f.Add(data)
	}
	f.Add([]byte("%DMFHINT1 owner=http://a app=a experiment=e trial=t len=2 crc32c=00000000\n{}"))
	f.Add([]byte("%DMFHINT1 owner=http://a app=a experiment=e trial=t len=999999999999 crc32c=00000000\n"))
	f.Add([]byte("%DMFHINT1\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := DecodeHint(data)
		if err != nil {
			if !errors.Is(err, ErrHint) {
				t.Fatalf("decode error does not wrap ErrHint: %v", err)
			}
			return
		}
		if err := h.Validate(); err != nil {
			t.Fatalf("decoded hint fails validation: %v", err)
		}
		again, err := EncodeHint(h)
		if err != nil {
			t.Fatalf("decoded hint fails re-encoding: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("decode/encode round-trip changed the bytes:\n%q\nvs\n%q", data, again)
		}
	})
}
