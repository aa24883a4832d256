package perfdmf

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sort"
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
// columnar binary format, current and legacy: envelope decode, columnar
// payload decode, trial validation. The invariants: every failure wraps
// ErrCorrupt; every decode that succeeds yields a Validate-clean trial; and
// the encoding is a fixed point after one canonicalization round (the
// fuzzer can supply headers whose JSON is legal but non-canonical — key
// order, whitespace — and %PDMFCOL1 payloads, so encode(decode(b)) may
// differ from b, but it must then be stable). The checked-in %PDMFCOL1
// corpus predates %PDMFCOL2 and is kept byte for byte.
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
		if legacy || !isColumnarAny(payload) {
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
		if !IsColumnar(e1) {
			t.Fatal("re-encoding is not in the current form")
		}
		c2, err := DecodeColumnar(e1)
		if err != nil {
			t.Fatalf("canonical encoding does not decode: %v", err)
		}
		if canonicalTrialDump(c2.Trial()) != canonicalTrialDump(tr) {
			t.Fatal("re-encoding changed the trial")
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

// fuzzSeedTrial is the trial behind the valid seeds and, as %PDMFCOL1,
// behind the checked-in `valid` corpus entry and testdata/col1_trial.pdmf.
func fuzzSeedTrial() *Trial {
	tr := NewTrial("app", "exp", "seed", 2)
	tr.AddMetric(TimeMetric)
	e := tr.EnsureEvent("main")
	for th := 0; th < 2; th++ {
		e.Calls[th] = 1
		e.SetValue(TimeMetric, th, float64(th+1), float64(th))
	}
	return tr
}

// addColumnarEnvelopeSeeds seeds a fuzz target with encoded trials: one
// valid, the rest damaged in the ways the decoders must survive, and last
// the same trial as a %PDMFCOL1 body.
func addColumnarEnvelopeSeeds(f *testing.F) {
	valid, err := MarshalColumnar(fuzzSeedTrial())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(encodeEnvelope(valid))
	f.Add(encodeEnvelope(valid[:len(valid)-5])) // truncated payload
	badCRC := encodeEnvelope(valid)
	badCRC[len(envelopeMagic)+3] ^= 0x40 // flip a payload bit under the CRC
	f.Add(badCRC)
	f.Add(encodeEnvelope([]byte(columnarMagic + "\x60\x00\x00\x00" +
		`{"name":"huge","threads":1000000000,"events":[{"name":"a"},{"name":"b"}],"columns":[]}    `)))
	f.Add(encodeEnvelope([]byte(columnarMagic)))
	f.Add(encodeEnvelope(legacyColumnarPayload(f, fuzzSeedTrial())))
}

// columnarCorpus returns the checked-in corpus of
// FuzzDecodeColumnarEnvelope, name → input.
func columnarCorpus(t testing.TB) map[string][]byte {
	t.Helper()
	names, err := filepath.Glob("testdata/fuzz/FuzzDecodeColumnarEnvelope/*")
	if err != nil || len(names) == 0 {
		t.Fatalf("no corpus found (err=%v)", err)
	}
	out := make(map[string][]byte, len(names))
	for _, name := range names {
		// A corpus file is "go test fuzz v1\n[]byte(<quoted>)\n".
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		_, lit, _ := strings.Cut(string(raw), "\n[]byte(")
		seed, err := strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(lit), ")"))
		if err != nil {
			t.Fatalf("corpus file %s: %v", name, err)
		}
		out[filepath.Base(name)] = []byte(seed)
	}
	return out
}

// The corpus holds what its names say, in both forms: the pre-%PDMFCOL2
// entries are %PDMFCOL1 bodies read through the legacy path, the col2_
// entries their current-form counterparts plus the over-wide row.
func TestColumnarCorpus(t *testing.T) {
	corpus := columnarCorpus(t)
	want := canonicalTrialDump(fuzzSeedTrial())
	for _, name := range []string{"valid", "col2_valid"} {
		data, ok := corpus[name]
		if !ok {
			t.Fatalf("corpus entry %s missing", name)
		}
		payload, _, err := decodeEnvelope(data)
		if err != nil || IsColumnar(payload) != (name == "col2_valid") || isColumnarV1(payload) != (name == "valid") {
			t.Fatalf("%s: wrong form (err=%v)", name, err)
		}
		if got, err := DecodeTrial(data); err != nil || canonicalTrialDump(got) != want {
			t.Errorf("%s: does not decode to the seed trial (err=%v)", name, err)
		}
	}
	if raw, err := os.ReadFile(filepath.Join("testdata", "col1_trial.pdmf")); err != nil || !bytes.Equal(raw, corpus["valid"]) {
		t.Errorf("testdata/col1_trial.pdmf is not the corpus's valid seed (err=%v)", err)
	}
	for _, name := range []string{"truncated", "bad_crc", "huge_dimension",
		"col2_truncated", "col2_bad_crc", "col2_huge_dimension", "col2_overwide_row"} {
		data, ok := corpus[name]
		if !ok {
			t.Fatalf("corpus entry %s missing", name)
		}
		if _, err := DecodeTrial(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: want ErrCorrupt, got %v", name, err)
		}
		// The damage is where the name says, not in the envelope around it.
		if _, _, err := decodeEnvelope(data); (err != nil) != strings.HasSuffix(name, "bad_crc") {
			t.Errorf("%s: envelope check = %v", name, err)
		}
	}
}

// FuzzSaveEncoded drives the upload decoder — Repository.SaveEncoded, what
// POST /api/v1/trials runs on an encoded body — with the seeds and the
// checked-in corpus of FuzzDecodeColumnarEnvelope. The invariants: a
// refusal wraps ErrCorrupt and stores nothing; an accepted body holds a
// Validate-clean trial that reads back, and is its canonical encoding — or
// is a %PDMFCOL1 body, and the file stored for it is the canonical encoding
// of the same trial.
func FuzzSaveEncoded(f *testing.F) {
	addColumnarEnvelopeSeeds(f)
	corpus := columnarCorpus(f)
	names := make([]string, 0, len(corpus))
	for name := range corpus {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(corpus[name])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		repo := NewRepository()
		st, err := repo.SaveEncoded(context.Background(), data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("refusal does not wrap ErrCorrupt: %v", err)
			}
			if _, _, n := repo.Size(); n != 0 {
				t.Fatalf("refused body left %d trials stored", n)
			}
			return
		}
		tr, err := DecodeTrial(data) // validates
		if err != nil {
			t.Fatalf("accepted body does not decode to a valid trial: %v", err)
		}
		if st.App != tr.App || st.Experiment != tr.Experiment || st.Name != tr.Name {
			t.Fatalf("stored as %q/%q/%q, body holds %q/%q/%q", st.App, st.Experiment, st.Name, tr.App, tr.Experiment, tr.Name)
		}
		if back, err := repo.GetTrial(tr.App, tr.Experiment, tr.Name); err != nil || canonicalTrialDump(back) != canonicalTrialDump(tr.Clone()) {
			t.Fatalf("accepted trial does not read back (err=%v)", err)
		}
		canon, err := EncodeTrial(tr)
		if err != nil {
			t.Fatalf("accepted trial does not encode: %v", err)
		}
		if !bytes.Equal(canon, st.Encoded) {
			t.Fatal("bytes returned are not the canonical encoding of the trial")
		}
		if bytes.Equal(canon, data) {
			return
		}
		payload, _, _ := decodeEnvelope(data)
		if !isColumnarV1(payload) {
			t.Fatal("accepted body is neither the canonical encoding of its trial nor a %PDMFCOL1 body")
		}
		disk, err := OpenRepository(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := disk.SaveEncoded(context.Background(), data); err != nil {
			t.Fatalf("file-backed SaveEncoded refused what the in-memory one took: %v", err)
		}
		if file := rawTrialFile(t, disk, tr.App, tr.Experiment, tr.Name); !bytes.Equal(file, canon) {
			t.Fatal("file stored for a %PDMFCOL1 body is not the canonical encoding of its trial")
		}
	})
}
