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
	// A valid envelope, a plain-JSON body (once a stored form, now one more
	// refusal), and near-misses around
	// every structural element the decoder checks: magic, trailer, hex
	// checksum, length field.
	f.Add(encodeEnvelope([]byte(`{"application":"a"}`)))
	f.Add([]byte(`{"application":"a","experiment":"e","name":"t"}`))
	f.Add([]byte("%PDMF1\n{}\n%PDMF1 crc32c=00000000 len=2\n"))
	f.Add([]byte("%PDMF1\n{}"))
	f.Add([]byte("%PDMF1\n{}\n%PDMF1 crc32c=zzzzzzzz len=2\n"))
	f.Add([]byte("%PDMF1\n{}\n%PDMF1 crc32c=00000000 len=999\n"))
	f.Add([]byte("   \t\r\n"))
	// A trailer has one spelling: these three carry the right numbers.
	f.Add([]byte("%PDMF1\n{}\n%PDMF1 crc32c=297bd0aa len=2\nx"))
	f.Add([]byte("%PDMF1\n{}\n%PDMF1 crc32c=297BD0AA len=2\n"))
	f.Add([]byte("%PDMF1\n{}\n%PDMF1 crc32c=297bd0aa len=+2\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := decodeEnvelope(data)
		if err != nil {
			// Every decode failure must expose the ErrCorrupt sentinel so
			// callers can distinguish damage from I/O errors.
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		// An envelope has one spelling: what was accepted is, byte for byte,
		// what sealing its payload writes.
		if !bytes.Equal(encodeEnvelope(payload), data) {
			t.Fatalf("accepted envelope is not the sealing of its payload: %q", data)
		}
	})
}

// The three seeds above carry the checksum and length of their payload, so
// only the spelling of the trailer can refuse them — and a file spelled so is
// refused on every path: decode, raw save, raw read (quarantined) and fsck
// (reported, not clean).
func TestEnvelopeTrailerHasOneSpelling(t *testing.T) {
	ctx := context.Background()
	good, err := EncodeTrial(miniTrial("app", "exp", "t1", 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeTrial(good); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeEnvelope([]byte("%PDMF1\n{}\n%PDMF1 crc32c=297bd0aa len=2\n")); err != nil {
		t.Fatalf("the fuzz seeds do not carry the checksum of their payload: %v", err)
	}
	for name, data := range map[string][]byte{
		"bytes after the newline": append(append([]byte(nil), good...), 'x'),
		"a second newline":        append(append([]byte(nil), good...), '\n'),
		"upper-case hex":          respellTrailer(t, good, func(sum, n string) string { return strings.ToUpper(sum) + envelopeLenTag + n }),
		"signed length":           respellTrailer(t, good, func(sum, n string) string { return sum + envelopeLenTag + "+" + n }),
		"zero-padded length":      respellTrailer(t, good, func(sum, n string) string { return sum + envelopeLenTag + "0" + n }),
		"space before the length": respellTrailer(t, good, func(sum, n string) string { return sum + envelopeLenTag + " " + n }),
		"nine-digit checksum":     respellTrailer(t, good, func(sum, n string) string { return "0" + sum + envelopeLenTag + n }),
		"length past an int64":    respellTrailer(t, good, func(sum, n string) string { return sum + envelopeLenTag + "18446744073709551616" }),
	} {
		if _, err := DecodeTrial(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: DecodeTrial = %v, want ErrCorrupt", name, err)
		}
		dir := t.TempDir()
		repo := mustOpen(t, dir)
		if _, err := repo.SaveEncoded(ctx, data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: SaveEncoded = %v, want ErrCorrupt", name, err)
		}
		p := repo.path("app", "exp", "t1")
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if rep, err := mustOpen(t, dir).Verify(); err != nil || rep.Clean() || rep.Trials != 0 || len(rep.Quarantined) != 1 {
			t.Errorf("%s: fsck = %+v, %v; want the file reported, not clean", name, rep, err)
		}
		if err := os.Rename(p+".corrupt", p); err != nil {
			t.Fatalf("%s: fsck did not set the file aside: %v", name, err)
		}
		if _, err := mustOpen(t, dir).GetEncoded(ctx, "app", "exp", "t1"); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: GetEncoded = %v, want ErrCorrupt", name, err)
		}
		if _, err := os.Stat(p + ".corrupt"); err != nil {
			t.Errorf("%s: GetEncoded did not quarantine the file: %v", name, err)
		}
	}
}

// respellTrailer rewrites the checksum and length of an envelope's trailer;
// the result must differ from the input.
func respellTrailer(t *testing.T, data []byte, spell func(sum, n string) string) []byte {
	t.Helper()
	i := bytes.LastIndex(data, []byte(envelopeTrailer)) + len(envelopeTrailer)
	sum, n, ok := strings.Cut(strings.TrimSuffix(string(data[i:]), "\n"), envelopeLenTag)
	if !ok {
		t.Fatalf("no trailer in %q", data[i:])
	}
	out := append(append([]byte(nil), data[:i]...), spell(sum, n)+"\n"...)
	if bytes.Equal(out, data) {
		t.Fatalf("respelling %q changed nothing", data[i:])
	}
	return out
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
// order, whitespace — and %PDMFCOL2 payloads, so encode(decode(b)) may
// differ from b, but it must then be stable). The checked-in corpus entries
// without a prefix predate %PDMFCOL2, are kept byte for byte and are all
// refused now; the col2_ entries are the previous form, the col3_ ones the
// current.
func FuzzDecodeColumnarEnvelope(f *testing.F) {
	addColumnarEnvelopeSeeds(f)

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := decodeEnvelope(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("envelope error does not wrap ErrCorrupt: %v", err)
			}
			return
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

// fuzzSeedTrial is the trial behind the valid seeds and behind the checked-in
// `col2_valid` corpus entry.
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

// fuzzKindsTrial is a leaf event whose threads did the same work: its calls
// and inclusive rows are one-valued, its exclusive row repeats the inclusive.
// It is behind the `col3_` corpus entries.
func fuzzKindsTrial() *Trial {
	tr := NewTrial("app", "exp", "kinds", 2)
	tr.AddMetric(TimeMetric)
	e := tr.EnsureEvent("leaf")
	for th := 0; th < 2; th++ {
		e.Calls[th] = 1
		e.SetValue(TimeMetric, th, 3, 3)
	}
	return tr
}

// fuzzKindsSeeds are the encoding of fuzzKindsTrial, that encoding cut inside
// its last one-valued row, and with that row stored a byte wider than it
// needs — each in a valid envelope.
func fuzzKindsSeeds(t testing.TB) (valid, truncated, overwide []byte) {
	t.Helper()
	p, err := MarshalColumnar(fuzzKindsTrial())
	if err != nil {
		t.Fatal(err)
	}
	// The payload ends: inclusive row {rowConst+2, 0x40, 0x08}, exclusive
	// row {rowSameAsInc}.
	n := len(p)
	if !bytes.Equal(p[n-4:], []byte{rowConst + 2, 0x40, 0x08, rowSameAsInc}) {
		t.Fatalf("kinds payload ends % x", p[n-4:])
	}
	wide := append(append([]byte(nil), p[:n-4]...), rowConst+3, 0x40, 0x08, 0x00, rowSameAsInc)
	return encodeEnvelope(p), encodeEnvelope(p[:n-2]), encodeEnvelope(wide)
}

// addColumnarEnvelopeSeeds seeds a fuzz target with encoded trials: one
// valid, the rest damaged in the ways the decoders must survive, the same
// trial as a %PDMFCOL2 body, and a trial whose rows take the kinds above 8,
// whole and damaged.
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
	f.Add(encodeEnvelope(prevColumnarPayload(f, fuzzSeedTrial())))
	valid, truncated, overwide := fuzzKindsSeeds(f)
	f.Add(valid)
	f.Add(truncated)
	f.Add(overwide)
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

// The corpus holds what its names say, in all three forms: the entries
// without a prefix are %PDMFCOL1 bodies, refused whatever their state; the
// col2_ entries are the previous form, read through the legacy path; the
// col3_ entries are the current form with rows of the kinds above 8.
func TestColumnarCorpus(t *testing.T) {
	corpus := columnarCorpus(t)
	for name, want := range map[string]*Trial{"col2_valid": fuzzSeedTrial(), "col3_valid": fuzzKindsTrial()} {
		data, ok := corpus[name]
		if !ok {
			t.Fatalf("corpus entry %s missing", name)
		}
		payload, err := decodeEnvelope(data)
		if err != nil || IsColumnar(payload) != (name == "col3_valid") || isColumnarPrev(payload) != (name == "col2_valid") {
			t.Fatalf("%s: wrong form (err=%v)", name, err)
		}
		if got, err := DecodeTrial(data); err != nil || canonicalTrialDump(got) != canonicalTrialDump(want) {
			t.Errorf("%s: does not decode to its trial (err=%v)", name, err)
		}
	}
	if raw, err := os.ReadFile(filepath.Join("testdata", "col1_trial.pdmf")); err != nil || !bytes.Equal(raw, corpus["valid"]) {
		t.Errorf("testdata/col1_trial.pdmf is not the corpus's valid seed (err=%v)", err)
	}
	valid, truncated, overwide := fuzzKindsSeeds(t)
	for name, want := range map[string][]byte{"col3_valid": valid, "col3_truncated_const": truncated, "col3_overwide_const": overwide} {
		if !bytes.Equal(corpus[name], want) {
			t.Errorf("corpus entry %s is not the seed of that name", name)
		}
	}
	for _, name := range []string{"valid", "truncated", "bad_crc", "huge_dimension",
		"col2_truncated", "col2_bad_crc", "col2_huge_dimension", "col2_overwide_row",
		"col3_truncated_const", "col3_overwide_const"} {
		data, ok := corpus[name]
		if !ok {
			t.Fatalf("corpus entry %s missing", name)
		}
		if _, err := DecodeTrial(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: want ErrCorrupt, got %v", name, err)
		}
		// The damage is where the name says, not in the envelope around it.
		if _, err := decodeEnvelope(data); (err != nil) != strings.HasSuffix(name, "bad_crc") {
			t.Errorf("%s: envelope check = %v", name, err)
		}
	}
}

// FuzzSaveEncoded drives the upload decoder — Repository.SaveEncoded, what
// POST /api/v1/trials runs on an encoded body — with the seeds and the
// checked-in corpus of FuzzDecodeColumnarEnvelope. The invariants: a
// refusal wraps ErrCorrupt and stores nothing; an accepted body holds a
// Validate-clean trial that reads back, and is its canonical encoding — or
// is a %PDMFCOL2 body, and the file stored for it is the canonical encoding
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
		payload, _ := decodeEnvelope(data)
		if !isColumnarPrev(payload) {
			t.Fatal("accepted body is neither the canonical encoding of its trial nor a %PDMFCOL2 body")
		}
		disk, err := OpenRepository(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := disk.SaveEncoded(context.Background(), data); err != nil {
			t.Fatalf("file-backed SaveEncoded refused what the in-memory one took: %v", err)
		}
		if file := rawTrialFile(t, disk, tr.App, tr.Experiment, tr.Name); !bytes.Equal(file, canon) {
			t.Fatal("file stored for a %PDMFCOL2 body is not the canonical encoding of its trial")
		}
	})
}
