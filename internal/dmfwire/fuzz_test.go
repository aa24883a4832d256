package dmfwire

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// FuzzDecodeRing hardens the ring/epoch descriptor decoder the same way the
// profile parsers are hardened: a descriptor arrives over the wire from
// whatever answers GET /api/v1/cluster, so any byte sequence must either
// decode into a valid, canonical Ring or fail with ErrRing — never panic,
// hang, or allocate proportionally to a lying length field. The %DMFRING1
// entries of the corpus, valid and damaged alike, are descriptors of the
// retired version: each must be refused by name.
func FuzzDecodeRing(f *testing.F) {
	if data, err := EncodeRing(testRing()); err == nil {
		f.Add(data)
	}
	f.Add([]byte("%DMFRING1 epoch=1 replicas=1 vnodes=1 seed=0 peers=1 crc32c=00000000\nhttp://a\n"))
	f.Add([]byte("%DMFRING1 epoch=1 replicas=1 vnodes=1 seed=0 peers=999999999 crc32c=00000000\n"))
	f.Add([]byte("%DMFRING1 epoch=1 replicas=1 vnodes=1 seed=0 peers=1\nhttp://a\n"))
	f.Add([]byte("%DMFRING1\n"))
	f.Add([]byte("%PDMF1\n{}\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeRing(data)
		if bytes.HasPrefix(data, []byte("%DMFRING1")) && (err == nil || !strings.Contains(err.Error(), migrationNote)) {
			t.Fatalf("a version 1 descriptor was not refused by name: %v", err)
		}
		if err != nil {
			// Every decode failure must expose the ErrRing sentinel so
			// callers can tell a bad descriptor from a transport error.
			if !errors.Is(err, ErrRing) {
				t.Fatalf("decode error does not wrap ErrRing: %v", err)
			}
			return
		}
		// A decoded descriptor is valid and canonical by construction, so
		// re-encoding must reproduce the input bytes exactly.
		if err := r.Validate(); err != nil {
			t.Fatalf("decoded ring fails validation: %v", err)
		}
		again, err := EncodeRing(r)
		if err != nil {
			t.Fatalf("decoded ring fails re-encoding: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("decode/encode round-trip changed the bytes:\n%q\nvs\n%q", data, again)
		}
	})
}
