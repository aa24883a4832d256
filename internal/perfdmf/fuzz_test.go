package perfdmf

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The three import parsers all consume untrusted bytes (wire uploads,
// files from other tools), so each gets a native fuzz target. The
// invariant under fuzzing is uniform: any input either parses into a
// trial that passes Validate and survives re-export, or returns an error —
// never a panic, hang, or unbounded allocation.

func FuzzParseTAUProfile(f *testing.F) {
	f.Add([]byte("1 templated_functions_MULTI_TIME\n# Name Calls Subrs Excl Incl ProfileCalls\n\"main\" 1 0 10 10 0 GROUP=\"TAU_DEFAULT\"\n0 aggregates\n"))
	f.Add([]byte("2 templated_functions_MULTI_TIME\n# Name Calls Subrs Excl Incl ProfileCalls # <metadata><attribute><name>k</name><value>v</value></attribute></metadata>\n\"main\" 1 0 10 10 0 GROUP=\"TAU_DEFAULT\"\n\"f | g\" 2 0 5 5 0 GROUP=\"MPI|IO\"\n0 aggregates\n"))
	f.Add([]byte("999999999 templated_functions_MULTI_TIME\n# Name\n"))
	f.Add([]byte("-5 x\n#\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := NewTrial("fuzz", "fuzz", "fuzz", 1)
		tr.AddMetric(TimeMetric)
		if err := parseTAUProfile(bytes.NewReader(data), "fuzz", tr, TimeMetric, 0); err != nil {
			return
		}
		// A parse that succeeded must yield an exportable trial.
		if err := tr.Validate(); err != nil {
			t.Fatalf("parsed trial fails validation: %v", err)
		}
	})
}

func FuzzParseGprof(f *testing.F) {
	f.Add([]byte(" %   cumulative   self              self     total\ntime   seconds   seconds    calls  ms/call  ms/call  name\n33.3       0.02      0.02     7208     0.00     0.01  compute_flux\n66.6       0.04      0.02                             main\n\nrest of the explanation\n"))
	f.Add([]byte("time seconds\n1.0 0.1 0.1 5 2.0 4.0 f g h\n"))
	f.Add([]byte("time seconds\nNaN NaN NaN NaN\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ParseGprof(bytes.NewReader(data), "a", "e", "t")
		if err != nil {
			return
		}
		if tr == nil {
			t.Fatal("nil trial with nil error")
		}
		if err := WriteCSV(io.Discard, tr); err != nil {
			t.Fatalf("parsed trial fails re-export: %v", err)
		}
	})
}

func FuzzDecodeEnvelope(f *testing.F) {
	// A valid envelope, a legacy plain-JSON body, and near-misses around
	// every structural element the decoder checks: magic, trailer, hex
	// checksum, length field.
	f.Add(encodeEnvelope([]byte(`{"application":"a"}`)))
	f.Add([]byte(`{"application":"a","experiment":"e","name":"t"}`))
	f.Add([]byte("%PDMF1\n{}\n%PDMF1 crc32c=00000000 len=2\n"))
	f.Add([]byte("%PDMF1\n{}"))
	f.Add([]byte("%PDMF1\n{}\n%PDMF1 crc32c=zzzzzzzz len=2\n"))
	f.Add([]byte("%PDMF1\n{}\n%PDMF1 crc32c=00000000 len=999\n"))
	f.Add([]byte("   \t\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, legacy, err := decodeEnvelope(data)
		if err != nil {
			// Every decode failure must expose the ErrCorrupt sentinel so
			// callers can distinguish damage from I/O errors.
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		if legacy {
			// Legacy passthrough returns the input verbatim.
			if !bytes.Equal(payload, data) {
				t.Fatal("legacy decode altered the payload")
			}
			return
		}
		// A successful envelope decode must round-trip: re-encoding the
		// payload yields an envelope that decodes to the same payload.
		again, legacy2, err := decodeEnvelope(encodeEnvelope(payload))
		if err != nil || legacy2 {
			t.Fatalf("re-encoded payload does not decode cleanly: legacy=%v err=%v", legacy2, err)
		}
		if !bytes.Equal(again, payload) {
			t.Fatal("envelope round-trip changed the payload")
		}
	})
}

// FuzzNameOf checks that safe and nameOf are inverse bijections between
// names and path components (see checkNameOf), from the hostile names of
// TestSafeInjective, their images, and components safe never emits.
func FuzzNameOf(f *testing.F) {
	for _, n := range hostileNames {
		f.Add(n)
		f.Add(safe(n))
	}
	for _, comp := range []string{"a%zz", "%2e", "a%", "%41"} {
		f.Add(comp)
	}
	f.Fuzz(checkNameOf)
}

func FuzzParseCSV(f *testing.F) {
	f.Add([]byte("application,experiment,trial,event,metric,thread,calls,exclusive,inclusive\na,e,t,main,TIME,0,1,10,10\na,e,t,main,TIME,1,1,12,12\n"))
	// Regression seeds for the thread-index hole: a negative index used to
	// panic on the per-thread slice write, a huge one used to attempt the
	// matching allocation.
	f.Add([]byte("application,experiment,trial,event,metric,thread,calls,exclusive,inclusive\na,e,t,main,TIME,-1,1,10,10\n"))
	f.Add([]byte("application,experiment,trial,event,metric,thread,calls,exclusive,inclusive\na,e,t,main,TIME,99999999,1,10,10\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		if tr == nil {
			t.Fatal("nil trial with nil error")
		}
		if err := WriteCSV(io.Discard, tr); err != nil {
			t.Fatalf("parsed trial fails re-export: %v", err)
		}
	})
}

// FuzzDecodeColumnarEnvelope drives the full trial-file read path over the
// columnar binary format: envelope decode, columnar payload decode, trial
// validation. The invariants: every failure wraps ErrCorrupt; every decode
// that succeeds yields a Validate-clean trial; and the encoding is a fixed
// point after one canonicalization round (the fuzzer can supply headers
// whose JSON is legal but non-canonical — key order, whitespace — so
// encode(decode(b)) may differ from b, but it must then be stable).
func FuzzDecodeColumnarEnvelope(f *testing.F) {
	addColumnarEnvelopeSeeds(f)

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, legacy, err := decodeEnvelope(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("envelope error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		if legacy || !IsColumnar(payload) {
			return // JSON bodies are FuzzDecodeEnvelope's territory
		}
		c, err := DecodeColumnar(payload)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("columnar error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		tr := c.Trial()
		if err := tr.Validate(); err != nil {
			t.Fatalf("decoded columnar trial fails Validate: %v", err)
		}
		// One canonicalization round reaches a fixed point.
		e1, err := c.Encode()
		if err != nil {
			t.Fatalf("re-encoding decoded payload: %v", err)
		}
		c2, err := DecodeColumnar(e1)
		if err != nil {
			t.Fatalf("canonical encoding does not decode: %v", err)
		}
		e2, err := c2.Encode()
		if err != nil {
			t.Fatalf("second encode: %v", err)
		}
		if !bytes.Equal(e1, e2) {
			t.Fatal("columnar encoding is not a fixed point after one round")
		}
	})
}

// addColumnarEnvelopeSeeds seeds a fuzz target with encoded trials: one
// valid, the rest damaged in the ways the decoders must survive.
func addColumnarEnvelopeSeeds(f *testing.F) {
	valid := func() []byte {
		tr := NewTrial("app", "exp", "seed", 2)
		tr.AddMetric(TimeMetric)
		e := tr.EnsureEvent("main")
		for th := 0; th < 2; th++ {
			e.Calls[th] = 1
			e.SetValue(TimeMetric, th, float64(th+1), float64(th))
		}
		p, err := MarshalColumnar(tr)
		if err != nil {
			f.Fatal(err)
		}
		return p
	}()
	f.Add(encodeEnvelope(valid))
	f.Add(encodeEnvelope(valid[:len(valid)-5])) // truncated payload
	badCRC := encodeEnvelope(valid)
	badCRC[len(envelopeMagic)+3] ^= 0x40 // flip a payload bit under the CRC
	f.Add(badCRC)
	f.Add(encodeEnvelope([]byte(columnarMagic + "\x60\x00\x00\x00" +
		`{"name":"huge","threads":1000000000,"events":[{"name":"a"},{"name":"b"}],"columns":[]}    `)))
	f.Add(encodeEnvelope([]byte(columnarMagic)))
}

// FuzzSaveEncoded drives the upload decoder — Repository.SaveEncoded, what
// POST /api/v1/trials runs on an encoded body — with the seeds and the
// checked-in corpus of FuzzDecodeColumnarEnvelope. The invariants: a
// refusal wraps ErrCorrupt and stores nothing; an accepted body is the
// canonical encoding of a Validate-clean trial, which then reads back.
func FuzzSaveEncoded(f *testing.F) {
	addColumnarEnvelopeSeeds(f)
	corpus, err := filepath.Glob("testdata/fuzz/FuzzDecodeColumnarEnvelope/*")
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range corpus {
		// A corpus file is "go test fuzz v1\n[]byte(<quoted>)\n".
		raw, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		_, lit, _ := strings.Cut(string(raw), "\n[]byte(")
		seed, err := strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(lit), ")"))
		if err != nil {
			f.Fatalf("corpus file %s: %v", name, err)
		}
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		repo := NewRepository()
		tr, err := repo.SaveEncoded(context.Background(), data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("refusal does not wrap ErrCorrupt: %v", err)
			}
			if _, _, n := repo.Size(); n != 0 {
				t.Fatalf("refused body left %d trials stored", n)
			}
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("accepted trial fails Validate: %v", err)
		}
		if canon, err := EncodeTrial(tr); err != nil || !bytes.Equal(canon, data) {
			t.Fatalf("accepted body is not the canonical encoding of its trial (err=%v)", err)
		}
		if _, err := repo.GetTrial(tr.App, tr.Experiment, tr.Name); err != nil {
			t.Fatalf("accepted trial does not read back: %v", err)
		}
	})
}
