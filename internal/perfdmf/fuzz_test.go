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
// ErrCorrupt; every decode that succeeds yields a Validate-clean trial; a
// %PDMFCOL5 payload the decoder accepts is exactly what encoding the decoded
// columns writes, and its envelope exactly what EncodeTrial writes for the
// trial it decodes to; and a %PDMFCOL4 one is exactly what the previous version's
// writer writes for them, and re-encodes to the same columns in the current
// form. The checked-in corpus entries without a prefix predate %PDMFCOL2, are
// kept byte for byte and are all refused now, as the col2_ and col3_ entries
// are; the col4_ entries are the previous form, the col5_ ones the current.
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
		e1, err := c.Encode()
		if err != nil {
			t.Fatalf("re-encoding decoded payload: %v", err)
		}
		if IsColumnar(payload) {
			if !bytes.Equal(e1, payload) {
				t.Fatal("a %PDMFCOL5 payload the decoder accepts is not what encoding its columns writes")
			}
			if enc, err := EncodeTrial(tr); err != nil || !bytes.Equal(enc, data) {
				t.Fatalf("a %%PDMFCOL5 trial the decoder accepts is not what EncodeTrial writes for it (err=%v)", err)
			}
			return
		}
		if !bytes.Equal(prevColumnsPayload(t, c), payload) {
			t.Fatal("a %PDMFCOL4 payload the decoder accepts is not what that version's writer writes for its columns")
		}
		c2, err := DecodeColumnar(e1)
		if err != nil {
			t.Fatalf("current encoding does not decode: %v", err)
		}
		if !equalColumnBits(c2, c) {
			t.Fatal("re-encoding changed the columns")
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
// It was behind the `col3_` corpus entries, when that version was current.
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

// fuzzKindsSeeds are p, a payload of fuzzKindsTrial in either version read,
// p cut inside its last one-valued row, and p with that row stored a byte
// wider than it needs — each in a valid envelope.
func fuzzKindsSeeds(t testing.TB, p []byte) (valid, truncated, overwide []byte) {
	t.Helper()
	// The payload ends: inclusive row {rowConst+2, 0x40, 0x08}, exclusive
	// row {rowSameAsInc}.
	n := len(p)
	if !bytes.Equal(p[n-4:], []byte{rowConst + 2, 0x40, 0x08, rowSameAsInc}) {
		t.Fatalf("kinds payload ends % x", p[n-4:])
	}
	wide := append(append([]byte(nil), p[:n-4]...), rowConst+3, 0x40, 0x08, 0x00, rowSameAsInc)
	return encodeEnvelope(p), encodeEnvelope(p[:n-2]), encodeEnvelope(wide)
}

// fuzzHeaderTrial fills every field of the header: a callpath sharing its
// parent's segment, a group, metadata.
func fuzzHeaderTrial() *Trial {
	tr := NewTrial("app", "exp", "header", 2)
	tr.AddMetric(TimeMetric)
	tr.Metadata["a"], tr.Metadata["b"] = "1", "2"
	for _, name := range []string{"main", "main => loop"} {
		e := tr.EnsureEvent(name)
		for th := 0; th < 2; th++ {
			e.Calls[th] = 1
			e.SetValue(TimeMetric, th, float64(th+2), float64(th+1))
		}
	}
	tr.Event("main => loop").Groups = []string{"LOOP"}
	return tr
}

// fuzzHeaderSeedNames orders fuzzHeaderSeeds: the `col4_` corpus entries.
var fuzzHeaderSeedNames = []string{
	"col4_valid", "col4_truncated_header", "col4_overlong_varint", "col4_duplicate_literal",
	"col4_reference_past_table", "col4_separator_in_segment", "col4_unsorted_metadata", "col4_count_past_end",
}

// fuzzHeaderSeeds are the %PDMFCOL4 encoding of fuzzHeaderTrial, written
// when that version was current, and, each in a valid envelope before the
// same value blocks, its header spelled every way the decoder must refuse:
// cut short, a varint in more bytes than it needs, a literal the table holds,
// a reference past the table, a callpath as one segment, metadata keys out of
// order, a count no header that size can hold. The current version has the
// same header.
func fuzzHeaderSeeds(t testing.TB) map[string][]byte {
	t.Helper()
	p := prevColumnarPayload(t, fuzzHeaderTrial())
	header, blocks, err := splitHeader(p)
	if err != nil {
		t.Fatal(err)
	}
	// Table: app, exp, header, TIME, then main, loop, LOOP, a, 1, b, 2.
	coords := hdr{}.lit("app").lit("exp").lit("header")
	metrics := func(h hdr) hdr { return h.n(1).lit("TIME") }
	events := func(h hdr) hdr { return h.n(2).n(1).lit("main").n(0).n(2).ref(5).lit("loop").n(1).lit("LOOP") }
	rest := func(h hdr) hdr { return h.n(1).ref(4).n(2).lit("a").lit("1").lit("b").lit("2") }
	whole := rest(events(metrics(coords.n(2))))
	if !bytes.Equal(whole, header) {
		t.Fatalf("the header Encode writes is not the one the format comment describes:\n% x\n% x", header, whole)
	}
	seed := func(h hdr) []byte { return encodeEnvelope(craftColumnarAs(columnarMagicPrev, string(h), blocks)) }
	return map[string][]byte{
		"col4_valid":                encodeEnvelope(p),
		"col4_truncated_header":     seed(whole[:len(whole)-1]),
		"col4_overlong_varint":      seed(rest(events(metrics(coords.raw(0x82, 0x00))))),
		"col4_duplicate_literal":    seed(rest(metrics(coords.n(2)).n(2).n(1).lit("main").n(0).n(2).lit("main").lit("loop").n(1).lit("LOOP"))),
		"col4_reference_past_table": seed(events(metrics(coords.n(2))).n(1).ref(8).n(2).lit("a").lit("1").lit("b").lit("2")),
		"col4_separator_in_segment": seed(rest(metrics(coords.n(2)).n(2).n(1).lit("main").n(0).n(1).lit("main => loop").n(1).lit("LOOP"))),
		"col4_unsorted_metadata":    seed(events(metrics(coords.n(2))).n(1).ref(4).n(2).lit("b").lit("2").lit("a").lit("1")),
		"col4_count_past_end":       seed(rest(metrics(coords.n(2)).n(200).n(1).lit("main").n(0).n(2).ref(5).lit("loop").n(1).lit("LOOP"))),
	}
}

// fuzzOffsetTrial is one event of four threads whose rows are all offset
// rows: call counts 3–6, inclusive counts 1000–1010, exclusive 100–110.
func fuzzOffsetTrial() *Trial {
	tr := NewTrial("app", "exp", "offsets", 4)
	tr.AddMetric(TimeMetric)
	e := tr.EnsureEvent("loop")
	for th, d := range []float64{0, 1, 3, 10} {
		e.Calls[th] = 3 + float64(th)
		e.SetValue(TimeMetric, th, 1000+d, 100+d)
	}
	return tr
}

// fuzzOffsetSeedNames orders fuzzOffsetSeeds: the `col5_` corpus entries.
var fuzzOffsetSeedNames = []string{
	"col5_valid", "col5_overwide_offset", "col5_base_below_least", "col5_reaching_2_53", "col5_all_offsets_zero",
	"col5_exclusive_same_offsets", "col5_offset_not_smaller", "col5_literal_not_offset", "col5_offset_in_col4",
	"col5_truncated_offset",
}

// fuzzOffsetSeeds are the encoding of fuzzOffsetTrial, its rows written by
// hand from the format comment, and, each in a valid envelope behind the same
// header, one of its rows spelled every way the decoder must refuse: wider
// than it needs, a base below the least value, a value at 2^53, one value
// throughout, an exclusive row repeating its inclusive one, an offset row no
// smaller than the literal, a literal where the offset row is smaller, the
// whole in the previous version, and cut inside the last row.
func fuzzOffsetSeeds(t testing.TB) map[string][]byte {
	t.Helper()
	p, err := MarshalColumnar(fuzzOffsetTrial())
	if err != nil {
		t.Fatal(err)
	}
	header, _, err := splitHeader(p)
	if err != nil {
		t.Fatal(err)
	}
	calls := []byte{rowOffset + 1, 3, 0, 1, 2, 3}                     // base 3, offsets 0–3
	inc := []byte{rowOffset + 2, 0x03, 0xe8, 0, 0, 0, 1, 0, 3, 0, 10} // base 1000
	exc := []byte{rowOffset + 1, 100, 0, 1, 3, 10}
	body := func(calls, inc, exc []byte) []byte { return rowsBody(calls, inc, exc) }
	seed := func(magic string, b []byte) []byte { return encodeEnvelope(craftColumnarAs(magic, string(header), b)) }
	if valid := seed(columnarMagic, body(calls, inc, exc)); !bytes.Equal(valid, encodeEnvelope(p)) {
		t.Fatalf("the offset rows Encode writes are not the ones the format comment describes:\n% x\n% x", p, valid)
	}
	whole := body(calls, inc, exc)
	return map[string][]byte{
		"col5_valid":            encodeEnvelope(p),
		"col5_overwide_offset":  seed(columnarMagic, body([]byte{rowOffset + 2, 0, 3, 0, 0, 0, 1, 0, 2, 0, 3}, inc, exc)),
		"col5_base_below_least": seed(columnarMagic, body([]byte{rowOffset + 1, 2, 1, 2, 3, 4}, inc, exc)),
		"col5_reaching_2_53": seed(columnarMagic, body(append([]byte{rowOffset + 7, 0x1f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xfd},
			0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 3), inc, exc)),
		"col5_all_offsets_zero":       seed(columnarMagic, body([]byte{rowOffset + 1, 3, 0, 0, 0, 0}, inc, exc)),
		"col5_exclusive_same_offsets": seed(columnarMagic, body(calls, inc, inc)),
		// 2, 2, 2 and 131072 are a literal byte each, 3 bytes each as offsets.
		"col5_offset_not_smaller": seed(columnarMagic, body([]byte{rowOffset + 3, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x01, 0xff, 0xfe}, inc, exc)),
		"col5_literal_not_offset": seed(columnarMagic, body([]byte{2, 0x40, 0x08, 0x40, 0x10, 0x40, 0x14, 0x40, 0x18}, inc, exc)),
		"col5_offset_in_col4":     seed(columnarMagicPrev, whole),
		"col5_truncated_offset":   seed(columnarMagic, whole[:len(whole)-2]),
	}
}

// addColumnarEnvelopeSeeds seeds a fuzz target with encoded trials: one
// valid, the rest damaged in the ways the decoders must survive, a %PDMFCOL3
// body, the valid trial as a %PDMFCOL4 body, a trial whose rows take the
// kinds 9 and 0x10+w in both versions read, whole and damaged, a trial that
// fills every header field, whole and with its header in each spelling the
// decoder refuses, and a trial of offset rows, whole and with a row in each
// spelling the decoder refuses.
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
	f.Add(encodeEnvelope([]byte(col3Magic + "\x60\x00\x00\x00" +
		`{"name":"huge","threads":1000000000,"events":[{"name":"a"},{"name":"b"}],"columns":[]}    `)))
	f.Add(encodeEnvelope([]byte(columnarMagic)))
	f.Add(encodeEnvelope(prevColumnarPayload(f, fuzzSeedTrial())))
	kinds, err := MarshalColumnar(fuzzKindsTrial())
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range [][]byte{prevColumnarPayload(f, fuzzKindsTrial()), kinds} {
		valid, truncated, overwide := fuzzKindsSeeds(f, p)
		f.Add(valid)
		f.Add(truncated)
		f.Add(overwide)
	}
	headers := fuzzHeaderSeeds(f)
	for _, name := range fuzzHeaderSeedNames {
		f.Add(headers[name])
	}
	offsets := fuzzOffsetSeeds(f)
	for _, name := range fuzzOffsetSeedNames {
		f.Add(offsets[name])
	}
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

// The corpus holds what its names say, in all five forms: the entries
// without a prefix are %PDMFCOL1 bodies, the col2_ entries %PDMFCOL2 ones and
// the col3_ entries %PDMFCOL3 ones, refused whatever their state; the col4_
// entries are the previous form, one valid and the rest with a header the
// decoder refuses; the col5_ entries are the current form, one valid and the
// rest with a row the decoder refuses.
func TestColumnarCorpus(t *testing.T) {
	corpus := columnarCorpus(t)
	for name, want := range map[string]*Trial{"col4_valid": fuzzHeaderTrial(), "col5_valid": fuzzOffsetTrial()} {
		data, ok := corpus[name]
		if !ok {
			t.Fatalf("corpus entry %s missing", name)
		}
		payload, err := decodeEnvelope(data)
		if err != nil || IsColumnar(payload) != (name == "col5_valid") || isColumnarPrev(payload) != (name == "col4_valid") {
			t.Fatalf("%s: wrong form (err=%v)", name, err)
		}
		if got, err := DecodeTrial(data); err != nil || canonicalTrialDump(got) != canonicalTrialDump(want) {
			t.Errorf("%s: does not decode to its trial (err=%v)", name, err)
		}
	}
	if raw, err := os.ReadFile(filepath.Join("testdata", "col1_trial.pdmf")); err != nil || !bytes.Equal(raw, corpus["valid"]) {
		t.Errorf("testdata/col1_trial.pdmf is not the corpus's valid seed (err=%v)", err)
	}
	for name, magic := range map[string]string{"col2_valid": col2Magic, "col3_valid": col3Magic, "col3_truncated_const": col3Magic} {
		if payload, err := decodeEnvelope(corpus[name]); err != nil || !bytes.HasPrefix(payload, []byte(magic)) {
			t.Errorf("%s: not a %s envelope (err=%v)", name, magic[:len(magic)-1], err)
		}
	}
	seeds := fuzzHeaderSeeds(t)
	for name, seed := range fuzzOffsetSeeds(t) {
		seeds[name] = seed
	}
	for name, want := range seeds {
		if !bytes.Equal(corpus[name], want) {
			t.Errorf("corpus entry %s is not the seed of that name", name)
		}
	}
	refused := []string{"valid", "truncated", "bad_crc", "huge_dimension",
		"col2_valid", "col2_truncated", "col2_bad_crc", "col2_huge_dimension", "col2_overwide_row",
		"col3_valid", "col3_truncated_const", "col3_overwide_const"}
	refused = append(refused, fuzzHeaderSeedNames[1:]...)
	refused = append(refused, fuzzOffsetSeedNames[1:]...)
	for _, name := range refused {
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
// is a %PDMFCOL4 body, and the file stored for it is the canonical encoding
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
			t.Fatal("accepted body is neither the canonical encoding of its trial nor a %PDMFCOL4 body")
		}
		disk, err := OpenRepository(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := disk.SaveEncoded(context.Background(), data); err != nil {
			t.Fatalf("file-backed SaveEncoded refused what the in-memory one took: %v", err)
		}
		if file := rawTrialFile(t, disk, tr.App, tr.Experiment, tr.Name); !bytes.Equal(file, canon) {
			t.Fatal("file stored for a %PDMFCOL4 body is not the canonical encoding of its trial")
		}
	})
}
