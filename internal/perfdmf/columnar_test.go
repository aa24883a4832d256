package perfdmf

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// --- canonical exact-bit trial dump -------------------------------------
//
// Unlike the analysis differential harness, conversions and storage involve
// no arithmetic, so NaN payloads must survive exactly — every float here is
// compared by its raw IEEE bits, payloads included.

func bitsDump(sb *strings.Builder, xs []float64) {
	for _, x := range xs {
		fmt.Fprintf(sb, " %016x", math.Float64bits(x))
	}
	sb.WriteByte('\n')
}

func canonicalTrialDump(tr *Trial) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "trial %q/%q/%q threads=%d\nmetrics=%q\n", tr.App, tr.Experiment, tr.Name, tr.Threads, tr.Metrics)
	keys := make([]string, 0, len(tr.Metadata))
	for k := range tr.Metadata {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&sb, "meta %q=%q\n", k, tr.Metadata[k])
	}
	for _, e := range tr.Events {
		fmt.Fprintf(&sb, "event %q groups=%q calls=", e.Name, e.Groups)
		bitsDump(&sb, e.Calls)
		for _, side := range []struct {
			tag string
			m   map[string][]float64
		}{{"inc", e.Inclusive}, {"exc", e.Exclusive}} {
			ms := make([]string, 0, len(side.m))
			for m := range side.m {
				ms = append(ms, m)
			}
			sort.Strings(ms)
			for _, m := range ms {
				fmt.Fprintf(&sb, " %s %q =", side.tag, m)
				bitsDump(&sb, side.m[m])
			}
		}
	}
	return sb.String()
}

// --- adversarial trial generator ----------------------------------------

func genColValue(r *rand.Rand) float64 {
	switch r.Intn(12) {
	case 0:
		return math.NaN()
	case 1:
		return math.Float64frombits(0x7ff8_0000_0000_dead) // NaN payload
	case 2:
		return math.Float64frombits(0xfff8_0000_0000_beef) // negative NaN payload
	case 3:
		return math.Inf(1)
	case 4:
		return math.Inf(-1)
	case 5:
		return math.Copysign(0, -1)
	default:
		return r.NormFloat64() * 1e6
	}
}

func genColTrial(r *rand.Rand, name string, threads int) *Trial {
	t := NewTrial("app µ", "exp/1", name, threads)
	pool := []string{TimeMetric, "PAPI_FP_OPS", "BYTES"}
	for i := 0; i < 1+r.Intn(len(pool)); i++ {
		t.AddMetric(pool[i])
	}
	if r.Intn(2) == 0 {
		t.Metadata["host"] = "node" + strconv.Itoa(r.Intn(3))
	}
	for i, nev := 0, r.Intn(8); i < nev; i++ {
		e := t.EnsureEvent("f" + strconv.Itoa(i))
		for th := 0; th < threads; th++ {
			e.Calls[th] = float64(r.Intn(50))
		}
		if r.Intn(3) == 0 {
			e.Groups = []string{"MPI"}
		}
		for _, m := range t.Metrics {
			switch r.Intn(5) {
			case 0: // absent
				delete(e.Inclusive, m)
				delete(e.Exclusive, m)
			case 1: // exclusive-only
				delete(e.Inclusive, m)
				for th := 0; th < threads; th++ {
					e.Exclusive[m][th] = genColValue(r)
				}
			default:
				for th := 0; th < threads; th++ {
					e.SetValue(m, th, genColValue(r), genColValue(r))
				}
			}
		}
		if r.Intn(4) == 0 { // unregistered extra metric
			vals := make([]float64, threads)
			for th := range vals {
				vals[th] = genColValue(r)
			}
			e.Exclusive["EXTRA"] = vals
		}
	}
	if len(t.Events) >= 2 {
		cp := t.EnsureEvent(t.Events[0].Name + CallpathSeparator + t.Events[1].Name)
		for th := 0; th < threads; th++ {
			cp.SetValue(t.Metrics[0], th, genColValue(r), genColValue(r))
		}
	}
	return t
}

// --- round-trip property tests ------------------------------------------

// Trial → Columns → Trial must be lossless: event order, groups, metadata,
// presence/absence of each metric per event, and exact float bits
// including NaN payloads and signed zeros.
func TestColumnsRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 60; i++ {
		threads := []int{1, 2, 3, 4, 8}[r.Intn(5)]
		tr := genColTrial(r, fmt.Sprintf("t%03d", i), threads)
		want := canonicalTrialDump(tr)

		c, err := ColumnsFromTrial(tr)
		if err != nil {
			t.Fatalf("trial %d: ColumnsFromTrial: %v", i, err)
		}
		if got := canonicalTrialDump(c.Trial()); got != want {
			t.Fatalf("trial %d: Columns round trip lost information\nwant:\n%s\ngot:\n%s", i, want, got)
		}
		if got := canonicalTrialDump(tr); got != want {
			t.Fatalf("trial %d: conversion mutated the source", i)
		}

		// Through the binary codec too.
		payload, err := MarshalColumnar(tr)
		if err != nil {
			t.Fatalf("trial %d: MarshalColumnar: %v", i, err)
		}
		if !IsColumnar(payload) {
			t.Fatalf("trial %d: payload missing columnar magic", i)
		}
		back, err := UnmarshalColumnar(payload)
		if err != nil {
			t.Fatalf("trial %d: UnmarshalColumnar: %v", i, err)
		}
		if got := canonicalTrialDump(back); got != want {
			t.Fatalf("trial %d: codec round trip lost information\nwant:\n%s\ngot:\n%s", i, want, got)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("trial %d: decoded trial invalid: %v", i, err)
		}

		// The encoding is canonical and deterministic.
		again, err := MarshalColumnar(tr)
		if err != nil {
			t.Fatalf("trial %d: second MarshalColumnar: %v", i, err)
		}
		if !bytes.Equal(payload, again) {
			t.Fatalf("trial %d: MarshalColumnar is not deterministic", i)
		}
		c2, err := DecodeColumnar(payload)
		if err != nil {
			t.Fatalf("trial %d: DecodeColumnar: %v", i, err)
		}
		re, err := c2.Encode()
		if err != nil {
			t.Fatalf("trial %d: re-encode: %v", i, err)
		}
		if !bytes.Equal(payload, re) {
			t.Fatalf("trial %d: decode→encode does not reproduce the payload", i)
		}
	}
}

func TestColumnsFromTrialErrors(t *testing.T) {
	if _, err := ColumnsFromTrial(&Trial{Threads: 0, Name: "z"}); err == nil {
		t.Error("zero-thread trial: want error")
	}
	if _, err := MarshalColumnar(&Trial{Threads: -3, Name: "z"}); err == nil {
		t.Error("negative-thread trial: want error")
	}
	dup := NewTrial("a", "e", "dup", 1)
	dup.AddMetric(TimeMetric)
	dup.Events = append(dup.Events, &Event{Name: "x", Calls: []float64{1}}, &Event{Name: "x", Calls: []float64{2}})
	if _, err := ColumnsFromTrial(dup); err == nil {
		t.Error("duplicate event names: want error")
	}
	short := NewTrial("a", "e", "short", 2)
	short.AddMetric(TimeMetric)
	short.Events = append(short.Events, &Event{Name: "x", Calls: []float64{1}}) // wrong Calls len
	if _, err := ColumnsFromTrial(short); err == nil {
		t.Error("mismatched Calls length: want error")
	}
}

// --- decode rejection table ---------------------------------------------

// craftColumnar assembles the current form: magic, the length-prefixed
// binary header holding what headerJSON, a header in the JSON of %PDMFCOL3,
// says, and body.
func craftColumnar(headerJSON string, body []byte) []byte {
	var h columnarHeader
	if err := json.Unmarshal([]byte(headerJSON), &h); err != nil {
		panic(err)
	}
	c := &Columns{App: h.App, Experiment: h.Experiment, Name: h.Name, Threads: h.Threads, Metrics: h.Metrics, Metadata: h.Metadata}
	for _, e := range h.Events {
		c.EventNames = append(c.EventNames, e.Name)
		c.Groups = append(c.Groups, e.Groups)
	}
	for _, m := range h.Columns {
		c.Cols = append(c.Cols, MetricColumn{Metric: m})
	}
	return craftColumnarAs(columnarMagic, string(c.appendHeader(nil)), body)
}

// craftColumnarAs assembles magic + length-prefixed header + body.
func craftColumnarAs(magic, header string, body []byte) []byte {
	buf := []byte(magic)
	var l [4]byte
	binary.LittleEndian.PutUint32(l[:], uint32(len(header)))
	buf = append(buf, l[:]...)
	buf = append(buf, header...)
	return append(buf, body...)
}

// hdr writes a %PDMFCOL4 header by hand, field by field, from the format
// comment rather than the encoder. Every method returns a new header and
// leaves the one it extends as it was, so one prefix can start many.
type hdr []byte

// n appends an integer.
func (h hdr) n(x uint64) hdr { return binary.AppendUvarint(h[:len(h):len(h)], x) }

// lit appends a string as a literal, the next table entry.
func (h hdr) lit(s string) hdr { return append(h.n(0).n(uint64(len(s))), s...) }

// raw appends bytes as they are.
func (h hdr) raw(b ...byte) hdr { return append(h[:len(h):len(h)], b...) }

// ref appends a reference to table entry r−1.
func (h hdr) ref(r uint64) hdr { return h.n(r) }

// minimalHdr is minimalHeader in the current form: the table is a, e, n,
// TIME, and event "e" is the experiment's string.
func minimalHdr() hdr {
	h := hdr{}.lit("a").lit("e").lit("n").n(1) // coordinates, threads
	h = h.n(1).lit("TIME")                     // metrics
	h = h.n(1).n(1).ref(2).n(0)                // event "e", no groups
	h = h.n(1).ref(4)                          // columns
	return h.n(0)                              // metadata
}

// craftHdr assembles the current form from a handwritten header.
func craftHdr(h hdr, body []byte) []byte {
	return craftColumnarAs(columnarMagic, string(h), body)
}

// minimalHeader describes 1 thread, 1 event "e", 1 column TIME.
const minimalHeader = `{"application":"a","experiment":"e","name":"n","threads":1,` +
	`"metrics":["TIME"],"events":[{"name":"e"}],"columns":["TIME"]}`

// minimalBodyWith: the given calls row + inc bitmap (1B) + exc bitmap (1B)
// + an inclusive and an exclusive row of zeros (1B each).
func minimalBodyWith(callsRow []byte, incBits, excBits byte) []byte {
	body := append([]byte(nil), callsRow...)
	return append(body, incBits, excBits, 0, 0)
}

// callsOne is the one-value row holding 1.0 (0x3ff0…) at its width, 2.
var callsOne = []byte{2, 0x3f, 0xf0}

func minimalBody(incBits, excBits byte) []byte {
	return minimalBodyWith(callsOne, incBits, excBits)
}

// retiredMagic and col2Magic are the magics three and two versions back,
// which DecodeColumnar refuses by name whatever follows them.
const (
	retiredMagic = "%PDMFCOL1\n"
	col2Magic    = "%PDMFCOL2\n"
)

// twoThreadHeader is minimalHeader with two threads, the least that can hold
// a one-valued row.
var twoThreadHeader = strings.Replace(minimalHeader, `"threads":1`, `"threads":2`, 1)

// rowsBody: the given calls, inclusive and exclusive rows around both bitmaps
// set.
func rowsBody(calls, inc, exc []byte) []byte {
	body := append([]byte(nil), calls...)
	body = append(body, 0x01, 0x01)
	return append(append(body, inc...), exc...)
}

func TestDecodeColumnarRejections(t *testing.T) {
	valid := craftColumnar(minimalHeader, minimalBody(0x01, 0x01))
	c, err := DecodeColumnar(valid)
	if err != nil {
		t.Fatalf("handcrafted minimal payload must decode, got %v", err)
	}
	if re, err := c.Encode(); err != nil || !bytes.Equal(re, valid) {
		t.Fatalf("handcrafted minimal payload is not what Encode writes (err=%v)", err)
	}
	if !bytes.Equal(valid, craftHdr(minimalHdr(), minimalBody(0x01, 0x01))) {
		t.Fatal("the header Encode writes is not the one the format comment describes")
	}
	// The previous version holds the same blocks behind its JSON header.
	validPrev := craftColumnarAs(columnarMagicPrev, minimalHeader, minimalBody(0x01, 0x01))
	if c1, err := DecodeColumnar(validPrev); err != nil {
		t.Fatalf("handcrafted %%PDMFCOL3 payload must decode, got %v", err)
	} else if canonicalTrialDump(c1.Trial()) != canonicalTrialDump(c.Trial()) {
		t.Fatal("the %PDMFCOL3 and %PDMFCOL4 payloads of one trial decode differently")
	}
	// Both new kinds, one thread and two: calls 1.0, inclusive 1.0, exclusive
	// the same row.
	one, oneEverywhere := []byte{2, 0x3f, 0xf0}, []byte{rowConst + 2, 0x3f, 0xf0}
	sameBody := rowsBody(one, one, []byte{rowSameAsInc})
	validKinds := craftColumnar(twoThreadHeader, rowsBody(oneEverywhere, oneEverywhere, []byte{rowSameAsInc}))
	for name, payload := range map[string][]byte{"one thread": craftColumnar(minimalHeader, sameBody), "two threads": validKinds} {
		ck, err := DecodeColumnar(payload)
		if err != nil {
			t.Fatalf("handcrafted payload with the new kinds, %s, must decode, got %v", name, err)
		}
		if re, err := ck.Encode(); err != nil || !bytes.Equal(re, payload) {
			t.Fatalf("handcrafted payload with the new kinds, %s, is not what Encode writes (err=%v)", name, err)
		}
		for i, x := range append(append(append([]float64(nil), ck.Calls...), ck.Cols[0].Inc...), ck.Cols[0].Exc...) {
			if x != 1 {
				t.Fatalf("%s: value %d decoded to %v, want 1", name, i, x)
			}
		}
	}

	const bombHeader = `{"threads":2147483648,"events":[{"name":"a"}],"columns":[]}`
	overclaimV1 := craftColumnarAs(retiredMagic,
		`{"threads":1000000,"events":[{"name":"a"}],"columns":[]}`, make([]byte, 64))
	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"not columnar", []byte(`{"name":"x"}`)},
		{"magic only", []byte(columnarMagic)},
		{"truncated header length", append([]byte(columnarMagic), 0x01)},
		{"header length exceeds payload", func() []byte {
			b := append([]byte(columnarMagic), 0xff, 0xff, 0xff, 0x7f)
			return append(b, []byte("{}")...)
		}()},
		{"bad header JSON", craftColumnarAs(columnarMagicPrev, `{"threads":`, nil)},
		{"zero threads", craftColumnar(`{"threads":0,"events":[],"columns":[]}`, nil)},
		{"negative threads", craftColumnar(`{"threads":-4,"events":[],"columns":[]}`, nil)},
		{"huge dimensions", craftColumnar(
			`{"threads":1000000000,"events":[{"name":"a"},{"name":"b"}],"columns":[]}`, nil)},
		{"duplicate event", craftColumnar(
			`{"threads":1,"events":[{"name":"a"},{"name":"a"}],"columns":[]}`, make([]byte, 2))},
		{"duplicate column", craftColumnar(
			`{"threads":1,"events":[{"name":"a"}],"columns":["TIME","TIME"]}`, make([]byte, 9))},
		{"inclusive without exclusive", craftColumnar(minimalHeader, minimalBody(0x01, 0x00))},
		{"nonzero bitmap padding", craftColumnar(minimalHeader, minimalBody(0x03, 0x03))},
		{"trailing bytes", append(append([]byte(nil), valid...), 0x00)},
		{"width 9", craftColumnar(minimalHeader,
			minimalBodyWith([]byte{9, 0x3f, 0xf0, 0, 0, 0, 0, 0, 0, 0}, 0x01, 0x01))},
		{"over-wide row", craftColumnar(minimalHeader, // small integer at full width
			minimalBodyWith([]byte{8, 0x3f, 0xf0, 0, 0, 0, 0, 0, 0}, 0x01, 0x01))},
		{"over-wide zero row", craftColumnar(minimalHeader, minimalBodyWith([]byte{1, 0}, 0x01, 0x01))},
		{"truncated inside a row", craftColumnar(minimalHeader, []byte{2, 0x3f})},
		{"zero-row bomb", craftColumnar(bombHeader, []byte{0})},
		// One case per spelling of a row the writer never picks.
		{"same-as-inclusive in the calls block", craftColumnar(minimalHeader, rowsBody([]byte{rowSameAsInc}, one, one))},
		{"same-as-inclusive in an inclusive block", craftColumnar(minimalHeader, rowsBody(one, []byte{rowSameAsInc}, []byte{0}))},
		{"same-as-inclusive of a zero row", craftColumnar(minimalHeader, rowsBody(one, []byte{0}, []byte{rowSameAsInc}))},
		{"literal exclusive row equal to its inclusive row", craftColumnar(minimalHeader, rowsBody(one, one, one))},
		{"one-valued exclusive row equal to its inclusive row", craftColumnar(twoThreadHeader,
			rowsBody(oneEverywhere, oneEverywhere, oneEverywhere))},
		{"literal row of one value", craftColumnar(twoThreadHeader,
			rowsBody([]byte{2, 0x3f, 0xf0, 0x3f, 0xf0}, []byte{0}, []byte{0}))},
		{"one-valued row with one thread", craftColumnar(minimalHeader, rowsBody(oneEverywhere, []byte{0}, []byte{0}))},
		{"one-valued row stored wide", craftColumnar(twoThreadHeader,
			rowsBody([]byte{rowConst + 3, 0x3f, 0xf0, 0}, []byte{0}, []byte{0}))},
		{"one-valued row of zero", craftColumnar(twoThreadHeader, rowsBody([]byte{rowConst + 1, 0}, []byte{0}, []byte{0}))},
		{"one-valued row of no bytes", craftColumnar(twoThreadHeader, rowsBody([]byte{rowConst}, []byte{0}, []byte{0}))},
		{"one-valued row of nine bytes", craftColumnar(twoThreadHeader,
			rowsBody([]byte{rowConst + 9, 0x3f, 0xf0, 0, 0, 0, 0, 0, 0, 1}, []byte{0}, []byte{0}))},
		{"kind between the families", craftColumnar(minimalHeader, rowsBody([]byte{10}, []byte{0}, []byte{0}))},
		{"truncated inside a one-valued row", craftColumnar(twoThreadHeader, []byte{rowConst + 2, 0x3f})},
		{"one-valued-row bomb", craftColumnar(bombHeader, oneEverywhere)},
		// The binary header has one spelling; each case is minimalHdr with one
		// field spelled another way (the first: threads 1 in two bytes).
		{"non-minimal varint", craftHdr(hdr{}.lit("a").lit("e").lit("n").raw(0x81, 0x00).
			n(1).lit("TIME").n(1).n(1).ref(2).n(0).n(1).ref(4).n(0), minimalBody(0x01, 0x01))},
		{"varint past 64 bits", craftHdr(hdr{}.lit("a").lit("e").lit("n").
			raw(bytes.Repeat([]byte{0xff}, 10)...).raw(0x01), nil)},
		{"literal repeating a table entry", craftHdr(hdr{}.lit("a").lit("e").lit("n").n(1).
			n(1).lit("TIME").n(1).n(1).lit("e").n(0).n(1).ref(4).n(0), minimalBody(0x01, 0x01))},
		{"reference past the table", craftHdr(hdr{}.lit("a").lit("e").lit("n").n(1).
			n(1).lit("TIME").n(1).n(1).ref(2).n(0).n(1).ref(5).n(0), minimalBody(0x01, 0x01))},
		{"event of no segments", craftHdr(hdr{}.lit("a").lit("e").lit("n").n(1).
			n(1).lit("TIME").n(1).n(0).n(0).n(1).ref(4).n(0), minimalBody(0x01, 0x01))},
		{"separator inside a segment", craftHdr(hdr{}.lit("a").lit("e").lit("n").n(1).
			n(1).lit("TIME").n(1).n(1).lit("x => y").n(0).n(1).ref(4).n(0), minimalBody(0x01, 0x01))},
		// "x =>" + " => " + "y" splits as "x", "=> y".
		{"segments splitting otherwise", craftHdr(hdr{}.lit("a").lit("e").lit("n").n(1).
			n(1).lit("TIME").n(1).n(2).lit("x =>").lit("y").n(0).n(1).ref(4).n(0), minimalBody(0x01, 0x01))},
		{"metadata keys out of order", craftHdr(minimalHdr()[:len(minimalHdr())-1].
			n(2).lit("k2").lit("v").lit("k1").ref(6), minimalBody(0x01, 0x01))},
		{"metadata key repeated", craftHdr(minimalHdr()[:len(minimalHdr())-1].
			n(2).lit("k").lit("v").ref(5).ref(6), minimalBody(0x01, 0x01))},
		{"event count past the header", craftHdr(hdr{}.lit("a").lit("e").lit("n").n(1).
			n(1).lit("TIME").n(1000).n(1).ref(2).n(0).n(1).ref(4).n(0), minimalBody(0x01, 0x01))},
		{"literal past the header", craftHdr(hdr{}.lit("a").lit("e").n(0).n(100), nil)},
		{"header cut short", craftHdr(minimalHdr()[:len(minimalHdr())-1], minimalBody(0x01, 0x01))},
		{"bytes after the header's last field", craftHdr(minimalHdr().n(0), minimalBody(0x01, 0x01))},
		{"threads past int", craftHdr(hdr{}.lit("a").lit("e").lit("n").n(1<<63).n(0).n(0).n(0).n(0), nil)},
		{"JSON header behind the current magic", craftColumnarAs(columnarMagic, minimalHeader, minimalBody(0x01, 0x01))},
		// The previous version's JSON header is read, the rows after it as
		// strictly as the current version's.
		{"literal row of one value, %PDMFCOL3", craftColumnarAs(columnarMagicPrev, twoThreadHeader,
			rowsBody([]byte{2, 0x3f, 0xf0, 0x3f, 0xf0}, []byte{0}, []byte{0}))},
		{"huge dimensions, %PDMFCOL3", craftColumnarAs(columnarMagicPrev,
			`{"threads":1000000000,"events":[{"name":"a"},{"name":"b"}],"columns":[]}`, nil)},
		{"duplicate event, %PDMFCOL3", craftColumnarAs(columnarMagicPrev,
			`{"threads":1,"events":[{"name":"a"},{"name":"a"}],"columns":[]}`, make([]byte, 2))},
		{"trailing bytes, %PDMFCOL3", append(append([]byte(nil), validPrev...), 0x00)},
		// Behind the magic two versions back nothing is read, well-formed or not.
		{"%PDMFCOL2 with a same-as-inclusive row", craftColumnarAs(col2Magic, minimalHeader, sameBody)},
		{"%PDMFCOL2 with a one-valued row", craftColumnarAs(col2Magic, twoThreadHeader,
			rowsBody(oneEverywhere, []byte{0}, []byte{0}))},
		{"huge dimensions, %PDMFCOL2", craftColumnarAs(col2Magic,
			`{"threads":1000000000,"events":[{"name":"a"},{"name":"b"}],"columns":[]}`, nil)},
		{"trailing bytes, %PDMFCOL2", append(craftColumnarAs(col2Magic, minimalHeader, minimalBody(0x01, 0x01)), 0x00)},
		{"well-formed, %PDMFCOL2", craftColumnarAs(col2Magic, minimalHeader, minimalBody(0x01, 0x01))},
		// Behind the retired magic nothing is read, well-formed or not.
		{"huge dimensions, v1", craftColumnarAs(retiredMagic,
			`{"threads":1000000000,"events":[{"name":"a"},{"name":"b"}],"columns":[]}`, nil)},
		{"claims more than it holds, v1", overclaimV1},
		{"trailing bytes, v1", append(craftColumnarAs(retiredMagic, minimalHeader, minimalBody(0x01, 0x01)), 0x00)},
		{"well-formed, v1", craftColumnarAs(retiredMagic, minimalHeader, minimalBody(0x01, 0x01))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeColumnar(tc.payload)
			if err == nil {
				t.Fatal("want decode error, got nil")
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v does not wrap ErrCorrupt", err)
			}
			retired := strings.HasPrefix(string(tc.payload), retiredMagic) || strings.HasPrefix(string(tc.payload), col2Magic)
			if retired && !strings.Contains(err.Error(), "perfdmfd -fsck") {
				t.Fatalf("refusal of a retired version does not name the way out: %v", err)
			}
		})
	}

	// Every strict prefix of a valid payload is rejected: the header pins
	// the row count of every block and each row its own length, so
	// truncation at any byte must surface.
	for _, whole := range [][]byte{valid, validPrev, validKinds} {
		for cut := 0; cut < len(whole); cut++ {
			if _, err := DecodeColumnar(whole[:cut]); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("prefix of %d bytes: want ErrCorrupt, got %v", cut, err)
			}
		}
	}

	// The bombs — payloads of about 100 bytes whose one row, of zeros or of
	// one value, claims 2³¹ threads, 16 GiB decoded; a header of 80 KiB whose
	// callpaths repeat one 64 KiB segment until their names would spell out
	// 512 MiB; a header whose event count is as large as its bytes allow and
	// whose events are not there — and the over-claiming body behind the
	// retired magic are refused before anything proportional to the claim is
	// allocated. The small ones cost at most 16 KiB to refuse; the two header
	// bombs are read up to where they fail, so what refusing them costs grows
	// with their own size, never with their claim.
	bomb := craftColumnar(bombHeader, []byte{0})
	if len(bomb) > 100 {
		t.Fatalf("bomb payload is %d bytes, want at most 100", len(bomb))
	}
	names := hdr{}.lit("a").lit("e").lit("n").n(1).n(0).n(4096).n(1).lit(strings.Repeat("x", 64<<10)).n(0)
	for i := 1; i < 4096; i++ {
		names = append(names, 2, 4, 4, 0) // two segments, both the long one; no groups
	}
	namesBomb := craftHdr(names.n(0).n(0), nil)
	// 64 Ki events claimed, each taking a byte of the header, none there.
	claim := craftHdr(append(hdr{}.lit("a").lit("e").lit("n").n(1).n(0).n(1<<16), make([]byte, 1<<16)...), nil)
	for name, tc := range map[string]struct {
		payload []byte
		limit   uint64 // bytes a refusal may allocate
	}{
		"zero-row bomb":                 {bomb, 16 << 10},
		"one-valued-row bomb":           {craftColumnar(bombHeader, oneEverywhere), 16 << 10},
		"callpath-name bomb":            {namesBomb, 16<<10 + 16*uint64(len(namesBomb))},
		"event-count claim":             {claim, 16<<10 + 16*uint64(len(claim))},
		"claims more than it holds, v1": {overclaimV1, 16 << 10},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 10; i++ {
			if _, err := DecodeColumnar(tc.payload); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: want ErrCorrupt, got %v", name, err)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / 10; per > tc.limit {
			t.Errorf("%s: refusing it allocated %d bytes, want at most %d", name, per, tc.limit)
		}
	}
}

// Columns.Encode refuses what DecodeColumnar would: nothing can be written
// that cannot be read back.
func TestEncodeRefusesUndecodableSize(t *testing.T) {
	c := NewColumns("a", "e", "n", maxDecodedBytes/8+1)
	c.EventNames, c.Groups = []string{"e"}, [][]string{nil}
	if _, err := c.Encode(); err == nil || !strings.Contains(err.Error(), "decode bound") {
		t.Fatalf("Encode of an over-bound trial = %v, want the decode-bound refusal", err)
	}
	// Callpath names spelling out more than the bound (200 of about 2 MiB,
	// each a substring of one string) are refused as decodeHeader refuses
	// them, by their total length.
	step := len("x" + CallpathSeparator)
	path := strings.Repeat("x"+CallpathSeparator, 2<<20/step) + "x"
	c = NewColumns("a", "e", "n", 1)
	for i := 0; i < 200; i++ {
		c.EventNames, c.Groups = append(c.EventNames, path[i*step:]), append(c.Groups, nil)
	}
	c.Calls = make([]float64, len(c.EventNames))
	if _, err := c.Encode(); err == nil || !strings.Contains(err.Error(), "callpath names") {
		t.Fatalf("Encode of over-bound callpath names = %v, want the decode-bound refusal", err)
	}
	if !decodableSize(1, maxDecodedBytes/8, 0) || decodableSize(1, maxDecodedBytes/8+1, 0) ||
		!decodableSize(2, maxDecodedBytes/8/6, 1) || decodableSize(2, maxDecodedBytes/8/6+1, 1) ||
		decodableSize(math.MaxInt, math.MaxInt, math.MaxInt/2-1) || !decodableSize(0, math.MaxInt, 5) {
		t.Error("decodableSize is not exactly events × threads × (1 + 2 columns) × 8 ≤ maxDecodedBytes")
	}
}

// prevColumnarPayload renders a trial as the %PDMFCOL3 payload the previous
// version wrote, from that format's documentation: the JSON json.Marshal
// gives its header, then the value blocks, which did not change (the
// checked-in col3_ files hold them byte for byte, TestCheckedInCol3Files).
func prevColumnarPayload(t testing.TB, tr *Trial) []byte {
	t.Helper()
	c, err := ColumnsFromTrial(tr)
	if err != nil {
		t.Fatal(err)
	}
	return prevColumnsPayload(t, c)
}

// prevColumnsPayload is prevColumnarPayload for a trial already pivoted — or
// pivoted as ColumnsFromTrial never would.
func prevColumnsPayload(t testing.TB, c *Columns) []byte {
	t.Helper()
	cur, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	_, blocks, err := splitHeader(cur)
	if err != nil {
		t.Fatal(err)
	}
	h := columnarHeader{App: c.App, Experiment: c.Experiment, Name: c.Name, Threads: c.Threads,
		Metrics: c.Metrics, Events: make([]columnarEvent, len(c.EventNames)), Columns: make([]string, len(c.Cols)), Metadata: c.Metadata}
	for i, name := range c.EventNames {
		h.Events[i] = columnarEvent{Name: name, Groups: c.Groups[i]}
	}
	for i := range c.Cols {
		h.Columns[i] = c.Cols[i].Metric
	}
	hb, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	return craftColumnarAs(columnarMagicPrev, string(hb), blocks)
}

func bitsOf(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	return out
}

// literalWidth states the width rule independently of the codec: the most
// bytes, counted from the top, any value of the row needs.
func literalWidth(row []uint64) int {
	w := 0
	for _, b := range row {
		for k := 0; k < 8; k++ {
			if byte(b>>(8*k)) != 0 && 8-k > w {
				w = 8 - k
			}
		}
	}
	return w
}

// A %PDMFCOL3 payload decodes to the trial it was written from, bit for
// bit, through the same row loop.
func TestDecodeColumnarReadsPreviousVersion(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 60; i++ {
		tr := genColTrial(r, fmt.Sprintf("t%03d", i), 1+r.Intn(9))
		payload := prevColumnarPayload(t, tr)
		if !isColumnarPrev(payload) {
			t.Fatal("test payload is not in the previous form")
		}
		back, err := UnmarshalColumnar(payload)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		if canonicalTrialDump(back) != canonicalTrialDump(tr) {
			t.Fatalf("trial %d: %%PDMFCOL3 round trip lost information", i)
		}
	}
}

// A trial with no row that repeats — random measurements, inclusive above
// exclusive, as the service benchmark's S and L shapes generate — has the
// value blocks of %PDMFCOL3 byte for byte, every row a literal at its
// narrowest width: only the magic and the header differ, and the header is
// the smaller.
func TestSyntheticShapesUnchanged(t *testing.T) {
	for _, sh := range []struct {
		events, threads int
		metrics         []string
	}{{32, 8, []string{TimeMetric}}, {128, 64, []string{TimeMetric, "CPU_CYCLES"}}, {5, 1, []string{TimeMetric}}} {
		r := rand.New(rand.NewSource(int64(sh.events)))
		tr := NewTrial("dmfload", "exp-00", "trial-0000", sh.threads)
		for _, m := range sh.metrics {
			tr.AddMetric(m)
		}
		for i := 0; i < sh.events; i++ {
			e := tr.EnsureEvent(fmt.Sprintf("loop_%03d", i))
			for th := 0; th < sh.threads; th++ {
				e.Calls[th] = float64(1 + (i+th)%9)
				for _, m := range sh.metrics {
					x := 1e14 + float64(r.Int63n(1e14))
					e.SetValue(m, th, x+1+float64(r.Int63n(9e13)), x)
				}
			}
		}
		c, err := ColumnsFromTrial(tr)
		if err != nil {
			t.Fatal(err)
		}
		cur, err := c.Encode()
		if err != nil {
			t.Fatal(err)
		}
		prev := prevColumnsPayload(t, c)
		curHeader, curBlocks, err := splitHeader(cur)
		if err != nil {
			t.Fatal(err)
		}
		prevHeader, _, err := splitHeader(prev)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(curBlocks, literalBlocks(c)) {
			t.Errorf("%d×%d×%d: the value blocks are not every row a literal at its narrowest width", sh.events, sh.threads, len(sh.metrics))
		}
		if len(curHeader) >= len(prevHeader) {
			t.Errorf("%d×%d×%d: header of %d B against the JSON header's %d B", sh.events, sh.threads, len(sh.metrics), len(curHeader), len(prevHeader))
		}
	}
}

// literalBlocks writes the value blocks of c as %PDMFCOL2 did, from the
// format's documentation: every row a width byte and the top width bytes of
// each value, at the narrowest width that drops only zero bytes. They are
// the blocks of the later versions for any trial with no row that repeats.
func literalBlocks(c *Columns) []byte {
	literal := func(buf []byte, xs []float64) []byte {
		for lo := 0; lo < len(xs); lo += c.Threads {
			row := bitsOf(xs[lo : lo+c.Threads])
			w := literalWidth(row)
			buf = append(buf, byte(w))
			for _, b := range row {
				for k := 0; k < w; k++ {
					buf = append(buf, byte(b>>(56-8*k)))
				}
			}
		}
		return buf
	}
	buf := literal(nil, c.Calls)
	for i := range c.Cols {
		col := &c.Cols[i]
		buf = appendBitmap(buf, col.IncPresent)
		buf = appendBitmap(buf, col.ExcPresent)
		buf = literal(literal(buf, col.Inc), col.Exc)
	}
	return buf
}

// --- packed rows -------------------------------------------------------

// packedRowEdgeValues are the bit patterns the width rule must carry
// exactly: both zeros, infinities, NaNs with payloads in high and low
// bytes, subnormals, and integers that fit 2, 3 and 8 bytes.
var packedRowEdgeValues = []uint64{
	0, 1 << 63, // 0, −0
	0x7ff0_0000_0000_0000, 0xfff0_0000_0000_0000, // ±Inf
	0x7ff8_0000_0000_0000, 0x7ff8_0000_0000_dead, 0xfff8_dead_0000_0000, 0x7ff0_0000_0000_0001, // NaNs
	1, 0x000f_ffff_ffff_ffff, 0x0008_0000_0000_0000, // subnormals
	0x4000_0000_0000_0000, // 2.0: one byte
	0x4059_0000_0000_0000, // 100: two bytes
	0x40c3_8800_0000_0000, // 10000: three bytes
	0x4340_0000_0000_0000, // 1<<53: two bytes
	0x433f_ffff_ffff_ffff, // 1<<53 − 1: eight bytes
	math.Float64bits(0.1), math.Float64bits(-1e-300),
}

// wantRow states the row format independently of the codec: the kind byte a
// row must be stored under and how many bytes follow it. inc is the inclusive
// row of the same event and column when row is an exclusive one, else nil.
func wantRow(row, inc []uint64) (kind byte, follow int) {
	w := literalWidth(row)
	one := true
	for _, b := range row {
		one = one && b == row[0]
	}
	switch {
	case w == 0:
		return 0, 0
	case inc != nil && slices.Equal(row, inc):
		return rowSameAsInc, 0
	case one && len(row) >= 2:
		return rowConst + byte(w), w
	}
	return byte(w), w * len(row)
}

// checkPackedRows encodes inc as the calls block and as the inclusive block
// of one column of a threads-wide trial, exc as its exclusive block, and
// checks the properties of the row format: bit-exact round trip, decode →
// encode a fixed point, every row of every block in its one spelling and the
// payload exactly as long as those rows.
func checkPackedRows(t *testing.T, inc, exc []uint64, threads int) {
	t.Helper()
	nEv := (len(inc) + threads - 1) / threads
	c := NewColumns("a", "e", "n", threads)
	for ev := 0; ev < nEv; ev++ {
		c.EventNames = append(c.EventNames, "e"+strconv.Itoa(ev))
	}
	c.Groups = make([][]string, nEv)
	c.Calls = make([]float64, nEv*threads)
	col := c.AddColumn("M")
	for i := range inc {
		c.Calls[i] = math.Float64frombits(inc[i])
		col.Inc[i] = math.Float64frombits(inc[i])
		col.Exc[i] = math.Float64frombits(exc[i])
	}
	enc, err := c.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	back, err := DecodeColumnar(enc)
	if err != nil {
		t.Fatalf("decode of Encode output: %v", err)
	}
	blocks := []struct {
		name      string
		in, out   []float64
		exclusive bool
	}{{"calls", c.Calls, back.Calls, false}, {"inc", col.Inc, back.Cols[0].Inc, false}, {"exc", col.Exc, back.Cols[0].Exc, true}}
	for _, blk := range blocks {
		for i := range blk.in {
			if math.Float64bits(blk.in[i]) != math.Float64bits(blk.out[i]) {
				t.Fatalf("%s[%d]: %016x came back as %016x (threads=%d)", blk.name, i,
					math.Float64bits(blk.in[i]), math.Float64bits(blk.out[i]), threads)
			}
		}
	}
	if re, err := back.Encode(); err != nil || !bytes.Equal(re, enc) {
		t.Fatalf("decode → encode is not a fixed point (err=%v)", err)
	}
	// The calls block starts right after the header, the column's bitmaps
	// and blocks follow: walk every row and compare its kind with the rule.
	hlen := int(binary.LittleEndian.Uint32(enc[len(columnarMagic):]))
	off := len(columnarMagic) + 4 + hlen
	for _, blk := range blocks {
		if blk.name == "inc" {
			off += 2 * ((nEv + 7) / 8)
		}
		for ev := 0; ev < nEv; ev++ {
			var incRow []uint64
			if blk.exclusive {
				incRow = bitsOf(col.Inc[ev*threads : (ev+1)*threads])
			}
			kind, follow := wantRow(bitsOf(blk.in[ev*threads:(ev+1)*threads]), incRow)
			if enc[off] != kind {
				t.Fatalf("%s row %d stored as kind %#x, want %#x (threads=%d)", blk.name, ev, enc[off], kind, threads)
			}
			off += 1 + follow
		}
	}
	if off != len(enc) {
		t.Fatalf("rows end at byte %d of a %d-byte payload", off, len(enc))
	}
}

// excVariants derives exclusive blocks from an inclusive one, row by row:
// narrower values, the same row, a row of the row's first value, zeros —
// in turn, so each meets every kind of inclusive row across the variants.
func excVariants(inc []uint64, threads int) [][]uint64 {
	out := make([][]uint64, 4)
	for shift := range out {
		exc := make([]uint64, len(inc))
		for i, b := range inc {
			switch row := i / threads; (row + shift) % 4 {
			case 0:
				exc[i] = b &^ 0xffff
			case 1:
				exc[i] = b
			case 2:
				exc[i] = inc[row*threads]
			}
		}
		out[shift] = exc
	}
	return out
}

func TestPackedRows(t *testing.T) {
	for _, threads := range []int{1, 2, 3, 7, 8, 64} {
		// One row per value, every other slot zero, then every slot that
		// value: each width on its own, literal and one-valued.
		var spread, filled []uint64
		for _, b := range packedRowEdgeValues {
			spread = append(spread, b)
			spread = append(spread, make([]uint64, threads-1)...)
			for th := 0; th < threads; th++ {
				filled = append(filled, b)
			}
		}
		for _, inc := range [][]uint64{packedRowEdgeValues, spread, filled} {
			for _, exc := range excVariants(inc, threads) {
				checkPackedRows(t, inc, exc, threads)
			}
		}
	}
}

// FuzzPackedRows: any values × threads, as an inclusive/exclusive pair,
// round-trip bit-exactly, re-encode to the same bytes and sit in their one
// spelling. data is read as 8-byte patterns; keep zeroes that many low bytes
// of each so the fuzzer reaches the narrow widths; shape picks, two bits a
// row, which rows become one-valued and which exclusive rows repeat their
// inclusive row.
func FuzzPackedRows(f *testing.F) {
	var seed []byte
	for _, b := range packedRowEdgeValues {
		seed = binary.BigEndian.AppendUint64(seed, b)
	}
	f.Add(seed, uint8(1), uint8(0), uint8(0))
	f.Add(seed, uint8(4), uint8(0), uint8(0b11_10_01_00))
	f.Add(seed, uint8(3), uint8(6), uint8(0b01_11_00_10))
	f.Add(seed[:8], uint8(16), uint8(8), uint8(0xff))
	f.Add([]byte{}, uint8(0), uint8(0), uint8(0))
	f.Add(seed, uint8(2), uint8(2), uint8(0b01_01_01_01))
	f.Fuzz(func(t *testing.T, data []byte, threadsArg, keep, shape uint8) {
		if len(data) > 1<<12 {
			data = data[:1<<12]
		}
		threads := 1 + int(threadsArg%64)
		inc := make([]uint64, len(data)/8)
		for i := range inc {
			inc[i] = binary.BigEndian.Uint64(data[8*i:]) &^ (1<<(8*(keep%9)) - 1)
		}
		exc := make([]uint64, len(inc))
		for i := range inc {
			row := i / threads
			pick := shape >> (2 * (row % 4))
			if pick&1 != 0 {
				inc[i] = inc[row*threads]
			}
			if exc[i] = bits.Reverse64(inc[i]) &^ 0xff; pick&2 != 0 {
				exc[i] = inc[i]
			}
		}
		checkPackedRows(t, inc, exc, threads)
	})
}

// --- repository integration ---------------------------------------------

func cellsTrial(name string, events, threads int) *Trial {
	tr := NewTrial("app", "exp", name, threads)
	tr.AddMetric(TimeMetric)
	for i := 0; i < events; i++ {
		e := tr.EnsureEvent("f" + strconv.Itoa(i))
		for th := 0; th < threads; th++ {
			e.Calls[th] = 1
			e.SetValue(TimeMetric, th, float64(i*threads+th), float64(i+th))
		}
	}
	return tr
}

func rawTrialFile(t *testing.T, repo *Repository, app, exp, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(repo.path(app, exp, name))
	if err != nil {
		t.Fatalf("reading trial file: %v", err)
	}
	return data
}

func isColumnarFile(t *testing.T, data []byte) bool {
	t.Helper()
	payload, err := decodeEnvelope(data)
	if err != nil {
		t.Fatalf("trial file not a valid envelope: %v", err)
	}
	return IsColumnar(payload)
}

// Every saved trial is written in the one encoded form, whatever its size,
// the file is exactly EncodeTrial's output, and a fresh repository reads it
// back bit-identically.
func TestRepositoryStoresEveryTrialColumnar(t *testing.T) {
	dir := t.TempDir()
	repo, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	trials := []*Trial{cellsTrial("small", 4, 2), cellsTrial("big", 512, 8), NewTrial("app", "exp", "empty", 1)}
	for _, tr := range trials {
		if err := repo.Save(tr); err != nil {
			t.Fatal(err)
		}
		file := rawTrialFile(t, repo, "app", "exp", tr.Name)
		if !isColumnarFile(t, file) {
			t.Errorf("trial %q not written columnar", tr.Name)
		}
		want, err := EncodeTrial(tr)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(file, want) {
			t.Errorf("trial %q: stored file differs from EncodeTrial output", tr.Name)
		}
	}

	repo2, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trials {
		got, err := repo2.GetTrial("app", "exp", tr.Name)
		if err != nil {
			t.Fatalf("GetTrial(%s): %v", tr.Name, err)
		}
		if canonicalTrialDump(got) != canonicalTrialDump(tr) {
			t.Errorf("trial %q read back differently", tr.Name)
		}
	}
}

// A trial file in the previous form, %PDMFCOL3, is read transparently and
// upgraded to the current one on its next save.
func TestRepositoryLegacyUpgradeToColumnar(t *testing.T) {
	dir := t.TempDir()
	repo, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	tr := cellsTrial("legacy", 6, 2)
	p := repo.path("app", "exp", "legacy")
	if err := os.MkdirAll(strings.TrimSuffix(p, "/"+lastSegment(p)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, encodeEnvelope(prevColumnarPayload(t, tr)), 0o644); err != nil {
		t.Fatal(err)
	}
	if isColumnarFile(t, rawTrialFile(t, repo, "app", "exp", "legacy")) {
		t.Fatal("the planted file is already in the current form")
	}

	got, err := repo.GetTrial("app", "exp", "legacy")
	if err != nil {
		t.Fatalf("legacy GetTrial: %v", err)
	}
	if canonicalTrialDump(got) != canonicalTrialDump(tr) {
		t.Fatal("legacy trial read back differently")
	}
	if err := repo.Save(got); err != nil {
		t.Fatal(err)
	}
	if !isColumnarFile(t, rawTrialFile(t, repo, "app", "exp", "legacy")) {
		t.Error("legacy file not upgraded to columnar envelope on save")
	}
}

func lastSegment(p string) string {
	i := strings.LastIndexByte(p, '/')
	return p[i+1:]
}

// A corrupt columnar payload inside a perfectly valid envelope must be
// quarantined: the envelope CRC protects against bit rot, the columnar
// decoder against structural damage that a correct CRC can still carry.
func TestRepositoryQuarantinesCorruptColumnar(t *testing.T) {
	dir := t.TempDir()
	repo, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	tr := cellsTrial("victim", 4, 2)
	if err := repo.Save(tr); err != nil {
		t.Fatal(err)
	}
	p := repo.path("app", "exp", "victim")
	// Truncate the columnar payload, then re-wrap with a FRESH (valid)
	// envelope so only the columnar decoder can catch it.
	payload, err := decodeEnvelope(rawTrialFile(t, repo, "app", "exp", "victim"))
	if err != nil {
		t.Fatalf("decodeEnvelope: %v", err)
	}
	if err := os.WriteFile(p, encodeEnvelope(payload[:len(payload)-5]), 0o644); err != nil {
		t.Fatal(err)
	}

	fresh, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.GetTrial("app", "exp", "victim"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("GetTrial over damaged columnar payload: want ErrCorrupt, got %v", err)
	}
	if _, err := os.Stat(p + ".corrupt"); err != nil {
		t.Errorf("damaged file not quarantined: %v", err)
	}
}

// Listings over columnar files open no file, and a read reports the
// original coordinates.
func TestRepositoryListsColumnarTrials(t *testing.T) {
	dir := t.TempDir()
	repo, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrial("my app", "exp one", "trial 1", 2)
	tr.AddMetric(TimeMetric)
	e := tr.EnsureEvent("main")
	for th := 0; th < 2; th++ {
		e.SetValue(TimeMetric, th, 1, 1)
	}
	if err := repo.Save(tr); err != nil {
		t.Fatal(err)
	}

	fresh, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	if apps := fresh.Applications(); len(apps) != 1 || apps[0] != "my app" {
		t.Fatalf("Applications = %v, want [my app]", apps)
	}
	if trials := fresh.Trials("my app", "exp one"); len(trials) != 1 || trials[0] != "trial 1" {
		t.Fatalf("Trials = %v, want [trial 1]", trials)
	}
	if _, err := fresh.GetTrial("my app", "exp one", "trial 1"); err != nil {
		t.Fatalf("GetTrial over columnar file: %v", err)
	}
}

// fsck validates columnar trial files like any other format.
func TestFsckCountsColumnarTrials(t *testing.T) {
	dir := t.TempDir()
	repo, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Save(cellsTrial("ok", 3, 2)); err != nil {
		t.Fatal(err)
	}
	// And one structurally damaged columnar file under a valid envelope.
	bad := encodeEnvelope(craftColumnar(minimalHeader, minimalBody(0x01, 0x00)))
	if err := os.WriteFile(repo.path("app", "exp", "bad"), bad, 0o644); err != nil {
		t.Fatal(err)
	}

	fresh, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fresh.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trials != 1 {
		t.Errorf("fsck Trials = %d, want 1", rep.Trials)
	}
	if len(rep.Quarantined) != 1 {
		t.Errorf("fsck Quarantined = %v, want exactly the damaged file", rep.Quarantined)
	}
}
