package perfdmf

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// This file implements the columnar (struct-of-arrays) representation of a
// trial. A Trial stores one map[string][]float64 pair per event — friendly
// for incremental construction and JSON, hostile to analysis loops, which
// pay a map lookup and a small-slice dereference per (event, metric) cell.
// Columns pivots the same data into one flat []float64 block per
// (metric × inclusive/exclusive) plus a calls block, indexed by
//
//	block[event*Threads + thread]
//
// with an event-name dictionary giving each event its row index. Analysis
// operations become tight loops over contiguous float64 columns, results
// can reuse whole blocks, and the encoded form ships and stores far
// cheaper than a JSON tree.
//
// The conversion is lossless for valid trials: event order, groups,
// metadata, the registered metric list, exact float bits (including NaN
// payloads), and per-(event, metric) presence — an event that never
// recorded a metric stays absent, it does not come back as zeros — all
// survive a Trial → Columns → Trial round trip. Presence is tracked by a
// per-event bitmap on each column; the flat blocks hold zeros at absent
// slots so arithmetic kernels can ignore presence exactly like the
// row-oriented code's nil-map reads do.

// MetricColumn holds the flat per-thread blocks of one metric across all
// events, plus per-event presence flags (whether the source event's metric
// map had an entry for this metric at all).
type MetricColumn struct {
	Metric     string
	Inc, Exc   []float64 // len = NEvents*Threads, stride-indexed
	IncPresent []bool    // len = NEvents
	ExcPresent []bool
}

// Columns is the columnar view of a Trial. Fields are exported so the
// analysis package can run tight loops over the blocks directly; use the
// methods for indexed access. The zero value is not usable — build one
// with NewColumns or ColumnsFromTrial.
type Columns struct {
	App        string
	Experiment string
	Name       string
	Threads    int
	Metrics    []string // the trial's registered metric list
	EventNames []string // dictionary: row index → event name
	Groups     [][]string
	Metadata   map[string]string
	Calls      []float64 // len = NEvents*Threads
	Cols       []MetricColumn

	eventIndex map[string]int
	colIndex   map[string]int
}

// NewColumns returns an empty columnar trial (no events, no columns).
func NewColumns(app, experiment, name string, threads int) *Columns {
	if threads <= 0 {
		panic(fmt.Sprintf("perfdmf: columnar trial %q must have positive threads, got %d", name, threads))
	}
	return &Columns{App: app, Experiment: experiment, Name: name, Threads: threads}
}

// NEvents returns the number of events (dictionary size).
func (c *Columns) NEvents() int { return len(c.EventNames) }

// EventIndex returns the row index of the named event.
func (c *Columns) EventIndex(name string) (int, bool) {
	if c.eventIndex == nil {
		c.eventIndex = make(map[string]int, len(c.EventNames))
		for i, n := range c.EventNames {
			c.eventIndex[n] = i
		}
	}
	i, ok := c.eventIndex[name]
	return i, ok
}

// Col returns the column for a metric, or nil. The pointer is valid until
// the next AddColumn call.
func (c *Columns) Col(metric string) *MetricColumn {
	if c.colIndex == nil {
		c.colIndex = make(map[string]int, len(c.Cols))
		for i := range c.Cols {
			c.colIndex[c.Cols[i].Metric] = i
		}
	}
	if i, ok := c.colIndex[metric]; ok {
		return &c.Cols[i]
	}
	return nil
}

// AddColumn appends a zero-filled, all-present column for the metric,
// registering it in Metrics if new, and returns it. The pointer is valid
// until the next AddColumn call.
func (c *Columns) AddColumn(metric string) *MetricColumn {
	n := len(c.EventNames) * c.Threads
	reg := false
	for _, m := range c.Metrics {
		if m == metric {
			reg = true
			break
		}
	}
	if !reg {
		c.Metrics = append(c.Metrics, metric)
	}
	c.Cols = append(c.Cols, MetricColumn{
		Metric:     metric,
		Inc:        make([]float64, n),
		Exc:        make([]float64, n),
		IncPresent: allTrue(len(c.EventNames)),
		ExcPresent: allTrue(len(c.EventNames)),
	})
	if c.colIndex != nil {
		c.colIndex[metric] = len(c.Cols) - 1
	}
	return &c.Cols[len(c.Cols)-1]
}

// MarkRegisteredPresent flips every registered metric's column to
// all-present. Trial.Clone materializes zeroed slices for every registered
// metric on every event (EnsureEvent semantics), so columnar
// implementations of clone-based operations apply this to reproduce the
// row-oriented output exactly.
func (c *Columns) MarkRegisteredPresent() {
	for _, m := range c.Metrics {
		if col := c.Col(m); col != nil {
			for i := range col.IncPresent {
				col.IncPresent[i] = true
				col.ExcPresent[i] = true
			}
		}
	}
}

func allTrue(n int) []bool {
	b := make([]bool, n)
	for i := range b {
		b[i] = true
	}
	return b
}

// ColumnsFromTrial pivots a trial into columnar form. The result owns
// fresh blocks — it shares nothing with t. Column order is deterministic:
// registered metrics first (in Metrics order), then unregistered metrics
// found on events, first-seen in event order (sorted within one event).
// Trials with per-thread slices of the wrong length are rejected.
func ColumnsFromTrial(t *Trial) (*Columns, error) {
	if t.Threads <= 0 {
		return nil, fmt.Errorf("perfdmf: trial %q has %d threads", t.Name, t.Threads)
	}
	th := t.Threads
	nEv := len(t.Events)
	c := &Columns{
		App:        t.App,
		Experiment: t.Experiment,
		Name:       t.Name,
		Threads:    th,
		Metrics:    append([]string(nil), t.Metrics...),
		EventNames: make([]string, nEv),
		Groups:     make([][]string, nEv),
		Calls:      make([]float64, nEv*th),
	}
	if t.Metadata != nil {
		c.Metadata = make(map[string]string, len(t.Metadata))
		for k, v := range t.Metadata {
			c.Metadata[k] = v
		}
	}
	order := make([]string, 0, len(t.Metrics))
	seen := make(map[string]bool, len(t.Metrics))
	for _, m := range t.Metrics {
		if !seen[m] {
			seen[m] = true
			order = append(order, m)
		}
	}
	for _, e := range t.Events {
		var extras []string
		for m := range e.Inclusive {
			if !seen[m] {
				seen[m] = true
				extras = append(extras, m)
			}
		}
		for m := range e.Exclusive {
			if !seen[m] {
				seen[m] = true
				extras = append(extras, m)
			}
		}
		sort.Strings(extras)
		order = append(order, extras...)
	}
	c.Cols = make([]MetricColumn, len(order))
	for i, m := range order {
		c.Cols[i] = MetricColumn{
			Metric:     m,
			Inc:        make([]float64, nEv*th),
			Exc:        make([]float64, nEv*th),
			IncPresent: make([]bool, nEv),
			ExcPresent: make([]bool, nEv),
		}
	}
	seenEv := make(map[string]bool, nEv)
	for ev, e := range t.Events {
		// The dictionary requires unique names (Validate does too); other
		// trials are refused, here and so by every analysis operation.
		if seenEv[e.Name] {
			return nil, fmt.Errorf("perfdmf: duplicate event %q in trial %q", e.Name, t.Name)
		}
		seenEv[e.Name] = true
		c.EventNames[ev] = e.Name
		if len(e.Groups) > 0 {
			c.Groups[ev] = append([]string(nil), e.Groups...)
		}
		if len(e.Calls) != th {
			return nil, fmt.Errorf("perfdmf: event %q has %d call entries, want %d", e.Name, len(e.Calls), th)
		}
		copy(c.Calls[ev*th:], e.Calls)
		for ci := range c.Cols {
			col := &c.Cols[ci]
			if vals, ok := e.Inclusive[col.Metric]; ok {
				if len(vals) != th {
					return nil, fmt.Errorf("perfdmf: event %q metric %q has %d inclusive entries, want %d",
						e.Name, col.Metric, len(vals), th)
				}
				col.IncPresent[ev] = true
				copy(col.Inc[ev*th:], vals)
			}
			if vals, ok := e.Exclusive[col.Metric]; ok {
				if len(vals) != th {
					return nil, fmt.Errorf("perfdmf: event %q metric %q has %d exclusive entries, want %d",
						e.Name, col.Metric, len(vals), th)
				}
				col.ExcPresent[ev] = true
				copy(col.Exc[ev*th:], vals)
			}
		}
	}
	return c, nil
}

// Trial materializes the columnar view as a row-oriented Trial. The
// per-event metric slices are full-capacity sub-slices of the column
// blocks — one backing array per metric instead of one per (event, metric)
// — so the conversion costs a handful of allocations per event, not per
// cell. The returned trial therefore shares its blocks with c: writes
// through one are visible through the other (appends cannot bleed across
// events thanks to the capacity caps). Callers that keep using c after
// handing the trial away should hand over a Clone instead.
func (c *Columns) Trial() *Trial {
	th := c.Threads
	t := &Trial{
		App:        c.App,
		Experiment: c.Experiment,
		Name:       c.Name,
		Threads:    th,
		Metrics:    append([]string(nil), c.Metrics...),
	}
	if c.Metadata != nil {
		t.Metadata = make(map[string]string, len(c.Metadata))
		for k, v := range c.Metadata {
			t.Metadata[k] = v
		}
	}
	t.Events = make([]*Event, len(c.EventNames))
	events := make([]Event, len(c.EventNames)) // one allocation for them all
	for ev, name := range c.EventNames {
		lo, hi := ev*th, (ev+1)*th
		e := &events[ev]
		*e = Event{
			Name:      name,
			Calls:     c.Calls[lo:hi:hi],
			Inclusive: make(map[string][]float64, len(c.Cols)),
			Exclusive: make(map[string][]float64, len(c.Cols)),
		}
		if ev < len(c.Groups) && len(c.Groups[ev]) > 0 {
			e.Groups = append([]string(nil), c.Groups[ev]...)
		}
		for ci := range c.Cols {
			col := &c.Cols[ci]
			if col.IncPresent[ev] {
				e.Inclusive[col.Metric] = col.Inc[lo:hi:hi]
			}
			if col.ExcPresent[ev] {
				e.Exclusive[col.Metric] = col.Exc[lo:hi:hi]
			}
		}
		t.Events[ev] = e
	}
	return t
}

// isPivot reports whether c is exactly what ColumnsFromTrial builds from
// c.Trial(): an empty metric list is nil, the columns are the registered
// metrics in Metrics order followed by the unregistered ones by the first
// event that has them (by name within one event), and rows without presence
// hold zeros. The decoder guarantees the rest (unique names, inclusive data
// only beside exclusive). Only such columns encode to the canonical bytes of
// their trial, and only such columns are cached.
func (c *Columns) isPivot() bool {
	if c.Metrics != nil && len(c.Metrics) == 0 {
		return false
	}
	n := 0
	for i, m := range c.Metrics {
		if slices.Contains(c.Metrics[:i], m) {
			continue
		}
		if n == len(c.Cols) || c.Cols[n].Metric != m {
			return false
		}
		n++
	}
	th, prev := c.Threads, -1
	for i := range c.Cols {
		col := &c.Cols[i]
		if i >= n {
			first := slices.Index(col.ExcPresent, true) // inclusive data is only where exclusive data is
			if first < 0 || first < prev || first == prev && col.Metric < c.Cols[i-1].Metric {
				return false
			}
			prev = first
		}
		for ev := range col.IncPresent {
			if !col.IncPresent[ev] && widthOf(col.Inc[ev*th:(ev+1)*th]) != 0 ||
				!col.ExcPresent[ev] && widthOf(col.Exc[ev*th:(ev+1)*th]) != 0 {
				return false
			}
		}
	}
	return true
}

// cloneTrial materializes a private row-oriented Trial from c, which must
// satisfy isPivot, leaving c untouched: Trial() over a copy of the 1 +
// 2·columns flat blocks. The result is what Trial.Clone returns for the
// trial c was pivoted from — registered metrics zero-filled on events that
// never recorded them, unregistered ones absent where they were absent,
// Metadata and the name index never nil, no events a nil slice.
func (c *Columns) cloneTrial() *Trial {
	p := *c
	p.Calls = slices.Clone(c.Calls)
	p.Cols = slices.Clone(c.Cols)
	everywhere := allTrue(len(c.EventNames))
	for i := range p.Cols {
		col := &p.Cols[i]
		col.Inc, col.Exc = slices.Clone(col.Inc), slices.Clone(col.Exc)
		if slices.Contains(c.Metrics, col.Metric) {
			col.IncPresent, col.ExcPresent = everywhere, everywhere
		}
	}
	t := p.Trial()
	if t.Metadata == nil {
		t.Metadata = make(map[string]string)
	}
	if len(t.Events) == 0 {
		t.Events = nil
	}
	t.ensureIndex()
	return t
}

// --- binary columnar payload -------------------------------------------
//
// The on-disk/wire form of a columnar trial is a deterministic binary
// payload carried inside the standard %PDMF1 envelope (which contributes
// the CRC32-C integrity check, so the payload itself carries none):
//
//	%PDMFCOL3\n
//	u32 (LE)  header length
//	header    JSON: application/experiment/name/threads, registered
//	          metrics, event dictionary (name+groups), column metric
//	          order, metadata
//	calls     value block
//	per column, in header order:
//	    inc-presence bitmap   ceil(NEvents/8) bytes, LSB-first
//	    exc-presence bitmap   ceil(NEvents/8) bytes
//	    inclusive value block
//	    exclusive value block
//
// A value block holds NEvents rows, one per event in dictionary order. A
// row is one kind byte and what that kind says follows:
//
//	0–8     literal: the top w bytes, most significant first, of each of the
//	        row's Threads IEEE-754 bit patterns, where
//	        w = 8 − TrailingZeros64(OR of the row's bit patterns)/8
//	        is the narrowest width that drops only zero bytes
//	9       the row equals the inclusive row of the same event and column;
//	        nothing follows. Exclusive blocks only — every leaf event
//	0x10+w  all Threads values are the one value whose top w bytes (1–8)
//	        follow. Threads ≥ 2 only — SPMD threads doing the same work
//
// A row of zeros is the kind byte alone, call counts take 2 bytes a value,
// hardware-counter totals 3–5, full-precision measurements 8; a repeated row
// costs 1 byte and a one-valued row 1+w whatever the thread count. Every bit
// survives (NaN payloads, −0) — rows are compared by bit pattern, never as
// floats — which the JSON form cannot represent at all. Each row has exactly
// one spelling, by precedence: a zero row is 0, else a row equal to its
// inclusive row is 9, else a one-valued row is 0x10+w at its narrowest w, else
// the narrowest literal. The decoder rejects every other spelling row by row,
// so the encoding of a given Columns value stays canonical — byte-for-byte
// reproducible, decode → encode a fixed point — which is what lets SaveEncoded
// and the differential test harness compare whole trials by comparing
// encodings.
//
// Because a zero row expands 1 byte to 8×Threads (and a repeated or one-valued
// row as much), the payload length does not bound what a payload decodes to;
// maxDecodedBytes does, checked against the header's dimensions before any
// block is allocated. Encode refuses the same size, so nothing can be written
// that cannot be read.
//
// The previous payload, %PDMFCOL2, is the same with literal rows only (a kind
// above 8 is corrupt, a repeating row is spelled out) and stays readable as a
// legacy form: DecodeColumnar reads both through one row loop, only %PDMFCOL3
// is written. The version before that is refused by name (see
// DecodeColumnar).

const (
	columnarMagic     = "%PDMFCOL3\n"
	columnarMagicPrev = "%PDMFCOL2\n" // same length: the header sits at one offset in both
)

// Row kinds above the literal widths 0–8.
const (
	rowSameAsInc = 9    // an exclusive row equal to its inclusive row
	rowConst     = 0x10 // rowConst+w: one w-byte value on every thread
)

// maxDecodedBytes bounds the value blocks a payload may decode to: 8× the
// largest body the service accepts (dmfwire.MaxTrialBody), so any upload
// whose rows average a stored byte per value or more fits.
const maxDecodedBytes = 1 << 28

// decodableSize reports whether value blocks of these dimensions stay
// within maxDecodedBytes, without overflowing on hostile dimensions.
func decodableSize(nEv, threads, nCols int) bool {
	if nEv == 0 {
		return true
	}
	return uint64(threads) <= maxDecodedBytes/8/uint64(nEv)/uint64(1+2*nCols)
}

// IsColumnar reports whether an envelope payload is a binary columnar
// trial in the current form, rather than the previous one (%PDMFCOL2).
func IsColumnar(payload []byte) bool {
	return bytes.HasPrefix(payload, []byte(columnarMagic))
}

func isColumnarPrev(payload []byte) bool {
	return bytes.HasPrefix(payload, []byte(columnarMagicPrev))
}

type columnarEvent struct {
	Name   string   `json:"name"`
	Groups []string `json:"groups,omitempty"`
}

type columnarHeader struct {
	App        string            `json:"application"`
	Experiment string            `json:"experiment"`
	Name       string            `json:"name"`
	Threads    int               `json:"threads"`
	Metrics    []string          `json:"metrics"`
	Events     []columnarEvent   `json:"events"`
	Columns    []string          `json:"columns"`
	Metadata   map[string]string `json:"metadata,omitempty"`
}

// Encode serializes the columnar trial into the binary payload format.
func (c *Columns) Encode() ([]byte, error) {
	return c.encode("", 0)
}

// encode returns prefix followed by the binary payload, in a buffer with
// room spare bytes of capacity left — so EncodeTrial builds envelope magic,
// payload and trailer in one allocation.
func (c *Columns) encode(prefix string, room int) ([]byte, error) {
	nEv, th := len(c.EventNames), c.Threads
	if th <= 0 {
		return nil, fmt.Errorf("perfdmf: encode columnar %q: non-positive threads %d", c.Name, th)
	}
	if !decodableSize(nEv, th, len(c.Cols)) {
		return nil, fmt.Errorf("perfdmf: encode columnar %q: %d×%d values in %d columns exceed the %d-byte decode bound",
			c.Name, nEv, th, len(c.Cols), maxDecodedBytes)
	}
	block := nEv * th
	if len(c.Calls) != block || len(c.Groups) != nEv {
		return nil, fmt.Errorf("perfdmf: encode columnar %q: inconsistent dimensions", c.Name)
	}
	hdr := columnarHeader{
		App:        c.App,
		Experiment: c.Experiment,
		Name:       c.Name,
		Threads:    th,
		Metrics:    c.Metrics,
		Events:     make([]columnarEvent, nEv),
		Columns:    make([]string, len(c.Cols)),
		Metadata:   c.Metadata,
	}
	for i, name := range c.EventNames {
		hdr.Events[i] = columnarEvent{Name: name, Groups: c.Groups[i]}
	}
	for i := range c.Cols {
		col := &c.Cols[i]
		if len(col.Inc) != block || len(col.Exc) != block ||
			len(col.IncPresent) != nEv || len(col.ExcPresent) != nEv {
			return nil, fmt.Errorf("perfdmf: encode columnar %q: column %q has inconsistent dimensions",
				c.Name, col.Metric)
		}
		hdr.Columns[i] = col.Metric
	}
	hb, err := json.Marshal(hdr)
	if err != nil {
		return nil, fmt.Errorf("perfdmf: encode columnar %q: %w", c.Name, err)
	}
	bitmap := (nEv + 7) / 8
	kinds, valueBytes := c.rowKinds()
	size := len(prefix) + len(columnarMagic) + 4 + len(hb) + len(c.Cols)*2*bitmap + len(kinds) + valueBytes
	buf := make([]byte, 0, size+room)
	buf = append(buf, prefix...)
	buf = append(buf, columnarMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(hb)))
	buf = append(buf, hb...)
	buf = appendPackedBlock(buf, c.Calls, kinds[:nEv])
	for i := range c.Cols {
		col := &c.Cols[i]
		ks := kinds[nEv*(1+2*i):]
		buf = appendBitmap(buf, col.IncPresent)
		buf = appendBitmap(buf, col.ExcPresent)
		buf = appendPackedBlock(buf, col.Inc, ks[:nEv])
		buf = appendPackedBlock(buf, col.Exc, ks[nEv:2*nEv])
	}
	return buf, nil
}

// rowWidth is the narrowest byte width that keeps every set bit of a row
// whose bit patterns OR to or: 0 for a row of zeros, 8 when any value uses
// its lowest byte.
func rowWidth(or uint64) int {
	return 8 - bits.TrailingZeros64(or)/8
}

// rowKinds is the pre-pass of encode: the kind of every row of every block,
// block after block in write order, and the bytes that follow all those kind
// bytes — with the kinds themselves, the exact size of the value blocks. The
// two comparisons behind the kinds above 8 each stop at the first value that
// differs, which in a row of measurements is the first.
func (c *Columns) rowKinds() (kinds []byte, valueBytes int) {
	th := c.Threads
	kinds = make([]byte, 0, len(c.EventNames)*(1+2*len(c.Cols)))
	block := func(xs, inc []float64) {
		for lo := 0; lo < len(xs); lo += th {
			row := xs[lo : lo+th]
			w := widthOf(row)
			switch {
			case w == 0:
			case inc != nil && sameBits(row, inc[lo:lo+th]):
				kinds = append(kinds, rowSameAsInc)
				continue
			case th >= 2 && oneValued(row):
				kinds = append(kinds, rowConst+byte(w))
				valueBytes += w
				continue
			}
			kinds = append(kinds, byte(w))
			valueBytes += w * th
		}
	}
	block(c.Calls, nil)
	for i := range c.Cols {
		block(c.Cols[i].Inc, nil)
		block(c.Cols[i].Exc, c.Cols[i].Inc)
	}
	return kinds, valueBytes
}

// sameBits reports whether a and the front of b hold the same bit patterns
// (so NaN equals itself and −0 differs from 0), stopping at the first that
// differ.
func sameBits(a, b []float64) bool {
	for i, x := range a {
		if math.Float64bits(x) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// oneValued reports whether every value of row has the bit pattern of the
// first: each equals the one before it.
func oneValued(row []float64) bool {
	return sameBits(row[1:], row)
}

// widthOf is the rowWidth of the OR of row's bit patterns, taken four
// values at a time. It stops at the first that use their lowest byte — the
// width is 8 whatever follows — so a row of full-precision measurements,
// the widest to write, is the cheapest to size.
func widthOf(row []float64) int {
	var or uint64
	for len(row) >= 4 {
		or |= math.Float64bits(row[0]) | math.Float64bits(row[1]) | math.Float64bits(row[2]) | math.Float64bits(row[3])
		if or&0xff != 0 {
			return 8
		}
		row = row[4:]
	}
	for _, x := range row {
		or |= math.Float64bits(x)
	}
	return rowWidth(or)
}

// appendPackedBlock appends a value block: per row its kind byte, then what
// the kind says follows — the top w bytes of each value, most significant
// first, of one value, or nothing. buf must have the capacity for it (encode
// sizes it from the same kinds).
func appendPackedBlock(buf []byte, xs []float64, kinds []byte) []byte {
	if len(kinds) == 0 {
		return buf
	}
	th := len(xs) / len(kinds)
	for ev, kb := range kinds {
		row := xs[ev*th : (ev+1)*th]
		buf = append(buf, kb)
		switch k := int(kb); {
		case k == 0, k == rowSameAsInc:
		case k == 8:
			for _, x := range row {
				buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(x))
			}
		case k > rowConst:
			b := math.Float64bits(row[0])
			for w := k - rowConst; w > 0; w-- {
				buf = append(buf, byte(b>>56))
				b <<= 8
			}
		default:
			n := len(buf)
			packRow(buf[n:cap(buf)], row, k)
			buf = buf[:n+k*th]
		}
	}
	return buf
}

// packRow writes the top w bytes (1–7) of each of row's values to the front
// of out, which may extend past the row. It stores whole 8-byte words: the
// low 8−w bytes of a value are zero by the width rule and the next store
// (or the next row) overwrites them. Byte by byte only where a word no
// longer fits out — the last values of a buffer sized exactly.
func packRow(out []byte, row []float64, w int) {
	fast := fullWordValues(len(out), w, len(row))
	off := 0
	for _, x := range row[:fast] {
		binary.BigEndian.PutUint64(out[off:off+8], math.Float64bits(x))
		off += w
	}
	for _, x := range row[fast:] {
		b := math.Float64bits(x)
		for k := 0; k < w; k++ {
			out[off+k] = byte(b >> (56 - 8*k))
		}
		off += w
	}
}

// unpackRow is the inverse of packRow: it fills row from the w-byte (1–7)
// values at the front of src, which may extend past the row, by masked
// 8-byte loads, and returns the OR of the bit patterns it read.
func unpackRow(row []float64, src []byte, w int) (or uint64) {
	mask := ^uint64(0) << (64 - 8*w)
	fast := fullWordValues(len(src), w, len(row))
	head, tail := row[:fast], row[fast:]
	off := 0
	for i := range head {
		b := binary.BigEndian.Uint64(src[off:off+8]) & mask
		or |= b
		head[i] = math.Float64frombits(b)
		off += w
	}
	for i := range tail {
		var b uint64
		for k := 0; k < w; k++ {
			b |= uint64(src[off+k]) << (56 - 8*k)
		}
		or |= b
		tail[i] = math.Float64frombits(b)
		off += w
	}
	return or
}

// fullWordValues is how many of th values packed w bytes apart can each be
// moved as a whole 8-byte word inside n bytes: all of them, except in the
// last few bytes of a buffer.
func fullWordValues(n, w, th int) int {
	if n >= w*(th-1)+8 {
		return th
	}
	if n < 8 {
		return 0
	}
	return (n-8)/w + 1
}

func appendBitmap(buf []byte, bs []bool) []byte {
	n := (len(bs) + 7) / 8
	start := len(buf)
	buf = append(buf, make([]byte, n)...)
	for i, b := range bs {
		if b {
			buf[start+i/8] |= 1 << (i % 8)
		}
	}
	return buf
}

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: columnar: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// blockReader walks the bytes after the header of a columnar payload.
type blockReader struct {
	rest    []byte
	nEv, th int
	kinds   bool // %PDMFCOL3 row kinds; false: %PDMFCOL2, literal rows only
}

func (r *blockReader) take(n int) ([]byte, bool) {
	if len(r.rest) < n {
		return nil, false
	}
	b := r.rest[:n]
	r.rest = r.rest[n:]
	return b, true
}

// block decodes one value block — an exclusive one when inc, the inclusive
// block of the same column, is given. The caller has checked the dimensions
// against maxDecodedBytes, which is what bounds the allocation. A row in any
// spelling but the one the writer picks (see the format comment) never came
// from it and would re-encode to different bytes: it is corrupt.
func (r *blockReader) block(inc []float64) ([]float64, error) {
	th := r.th
	xs := make([]float64, r.nEv*th)
	for ev := 0; ev < r.nEv; ev++ {
		kb, ok := r.take(1)
		if !ok {
			return nil, corruptf("truncated at row %d", ev)
		}
		k := int(kb[0])
		if k == 0 {
			continue
		}
		row := xs[ev*th : (ev+1)*th]
		var incRow []float64
		if inc != nil {
			incRow = inc[ev*th : (ev+1)*th]
		}
		switch {
		case k <= 8:
			src := r.rest // past the row's end too: what a masked load reads there is dropped
			if _, ok := r.take(k * th); !ok {
				return nil, corruptf("truncated inside row %d", ev)
			}
			var or uint64
			if k == 8 {
				for i := range row {
					b := binary.BigEndian.Uint64(src[8*i:])
					or |= b
					row[i] = math.Float64frombits(b)
				}
			} else {
				or = unpackRow(row, src, k)
			}
			if need := rowWidth(or); need != k {
				return nil, corruptf("row %d stored at width %d needs %d", ev, k, need)
			}
			if !r.kinds {
				continue
			}
			if th >= 2 && oneValued(row) {
				return nil, corruptf("row %d holds one value and is spelled out", ev)
			}
		case !r.kinds:
			return nil, corruptf("row %d has width %d", ev, k)
		case k == rowSameAsInc:
			if incRow == nil {
				return nil, corruptf("row %d repeats an inclusive row outside an exclusive block", ev)
			}
			if widthOf(incRow) == 0 {
				return nil, corruptf("row %d repeats a row of zeros", ev)
			}
			copy(row, incRow)
			continue
		case k > rowConst && k <= rowConst+8:
			if th < 2 {
				return nil, corruptf("row %d is one-valued in a trial of one thread", ev)
			}
			w := k - rowConst
			src, ok := r.take(w)
			if !ok {
				return nil, corruptf("truncated inside row %d", ev)
			}
			var b uint64
			for i, x := range src {
				b |= uint64(x) << (56 - 8*i)
			}
			if need := rowWidth(b); need != w {
				return nil, corruptf("one-valued row %d stored at width %d needs %d", ev, w, need)
			}
			x := math.Float64frombits(b)
			for i := range row {
				row[i] = x
			}
		default:
			return nil, corruptf("row %d has kind %d", ev, k)
		}
		if incRow != nil && sameBits(row, incRow) {
			return nil, corruptf("exclusive row %d equals its inclusive row and is spelled out", ev)
		}
	}
	return xs, nil
}

// DecodeColumnar parses a binary columnar payload, %PDMFCOL3 or the legacy
// %PDMFCOL2. Any structural problem — bad magic, truncated blocks,
// dimension/length mismatch, a row not in its one spelling, duplicate names,
// presence inconsistent with Trial validity — wraps ErrCorrupt. A successful
// decode always yields a Columns whose Trial() passes Validate, and
// re-encoding a decoded %PDMFCOL3 payload reproduces the input bytes.
func DecodeColumnar(payload []byte) (*Columns, error) {
	kinds := IsColumnar(payload)
	if !kinds && !isColumnarPrev(payload) {
		if bytes.HasPrefix(payload, []byte("%PDMFCOL1\n")) {
			return nil, retiredForm("%PDMFCOL1")
		}
		if looksLikeJSON(payload) {
			return nil, retiredForm("trial JSON inside the envelope")
		}
		return nil, corruptf("missing %q magic", columnarMagic[:len(columnarMagic)-1])
	}
	rest := payload[len(columnarMagic):]
	if len(rest) < 4 {
		return nil, corruptf("truncated header length")
	}
	hlen := binary.LittleEndian.Uint32(rest)
	rest = rest[4:]
	if uint64(hlen) > uint64(len(rest)) {
		return nil, corruptf("header length %d exceeds payload", hlen)
	}
	var hdr columnarHeader
	if err := json.Unmarshal(rest[:hlen], &hdr); err != nil {
		return nil, corruptf("bad header: %v", err)
	}
	if hdr.Threads <= 0 {
		return nil, corruptf("non-positive threads %d", hdr.Threads)
	}
	nEv := len(hdr.Events)
	// Size sanity before any dimension-proportional allocation.
	if !decodableSize(nEv, hdr.Threads, len(hdr.Columns)) {
		return nil, corruptf("dimensions %d×%d in %d columns decode to more than %d bytes",
			nEv, hdr.Threads, len(hdr.Columns), maxDecodedBytes)
	}
	r := &blockReader{rest: rest[hlen:], nEv: nEv, th: hdr.Threads, kinds: kinds}
	bitmap := (nEv + 7) / 8
	seenEv := make(map[string]bool, nEv)
	c := &Columns{
		App:        hdr.App,
		Experiment: hdr.Experiment,
		Name:       hdr.Name,
		Threads:    hdr.Threads,
		Metrics:    hdr.Metrics,
		EventNames: make([]string, nEv),
		Groups:     make([][]string, nEv),
		Metadata:   hdr.Metadata,
	}
	for i, e := range hdr.Events {
		if seenEv[e.Name] {
			return nil, corruptf("duplicate event %q", e.Name)
		}
		seenEv[e.Name] = true
		c.EventNames[i] = e.Name
		c.Groups[i] = e.Groups
	}
	var err error
	if c.Calls, err = r.block(nil); err != nil {
		return nil, fmt.Errorf("%w (calls block)", err)
	}
	seenCol := make(map[string]bool, len(hdr.Columns))
	c.Cols = make([]MetricColumn, len(hdr.Columns))
	for i, m := range hdr.Columns {
		if seenCol[m] {
			return nil, corruptf("duplicate column %q", m)
		}
		seenCol[m] = true
		col := &c.Cols[i]
		col.Metric = m
		ib, ok1 := r.take(bitmap)
		eb, ok2 := r.take(bitmap)
		if !ok1 || !ok2 {
			return nil, corruptf("truncated presence bitmap for %q", m)
		}
		if col.IncPresent, err = decodeBitmap(ib, nEv); err != nil {
			return nil, err
		}
		if col.ExcPresent, err = decodeBitmap(eb, nEv); err != nil {
			return nil, err
		}
		// Trial.Validate rejects inclusive data without matching exclusive
		// data, so a payload claiming that shape can never have come from
		// the encoder.
		for ev := range col.IncPresent {
			if col.IncPresent[ev] && !col.ExcPresent[ev] {
				return nil, corruptf("column %q event %d has inclusive but no exclusive data", m, ev)
			}
		}
		if col.Inc, err = r.block(nil); err != nil {
			return nil, fmt.Errorf("%w (inclusive block of %q)", err, m)
		}
		if col.Exc, err = r.block(col.Inc); err != nil {
			return nil, fmt.Errorf("%w (exclusive block of %q)", err, m)
		}
	}
	if len(r.rest) != 0 {
		return nil, corruptf("%d trailing bytes", len(r.rest))
	}
	return c, nil
}

func decodeBitmap(raw []byte, n int) ([]bool, error) {
	bs := make([]bool, n)
	for i := range bs {
		bs[i] = raw[i/8]&(1<<(i%8)) != 0
	}
	// Padding bits must be zero so the encoding stays canonical (a decode
	// followed by an encode reproduces the input byte for byte).
	for i := n; i < 8*len(raw); i++ {
		if raw[i/8]&(1<<(i%8)) != 0 {
			return nil, corruptf("nonzero padding bit %d in presence bitmap", i)
		}
	}
	return bs, nil
}

// MarshalColumnar encodes a trial as a binary columnar payload, suitable
// for wrapping in a %PDMF1 envelope.
func MarshalColumnar(t *Trial) ([]byte, error) {
	c, err := ColumnsFromTrial(t)
	if err != nil {
		return nil, err
	}
	return c.Encode()
}

// UnmarshalColumnar decodes a binary columnar payload into a Trial.
func UnmarshalColumnar(payload []byte) (*Trial, error) {
	c, err := DecodeColumnar(payload)
	if err != nil {
		return nil, err
	}
	return c.Trial(), nil
}

// decodeTrialPayload turns an envelope payload, columnar binary of either
// version read, into a validated Trial. Decode and validation failures wrap
// ErrCorrupt.
func decodeTrialPayload(payload []byte) (*Trial, error) {
	t, err := UnmarshalColumnar(payload)
	if err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return t, nil
}

// decodeColumnsPayload is decodeTrialPayload for the repository, which keeps
// trials pivoted: the columns of the trial an envelope payload holds,
// satisfying isPivot. A payload the encoder wrote decodes straight to them;
// any other goes through the Trial it holds.
func decodeColumnsPayload(payload []byte) (*Columns, error) {
	if c, err := DecodeColumnar(payload); err != nil || c.isPivot() {
		return c, err
	}
	t, err := decodeTrialPayload(payload)
	if err != nil {
		return nil, err
	}
	return ColumnsFromTrial(t)
}

// decodeTrialHeaderPayload extracts the identifying header from a columnar
// envelope payload: it reads only the JSON header, never the value blocks.
func decodeTrialHeaderPayload(payload []byte) (trialHeader, bool) {
	if !IsColumnar(payload) && !isColumnarPrev(payload) {
		return trialHeader{}, false
	}
	rest := payload[len(columnarMagic):]
	if len(rest) < 4 {
		return trialHeader{}, false
	}
	hlen := binary.LittleEndian.Uint32(rest)
	if uint64(hlen) > uint64(len(rest)-4) {
		return trialHeader{}, false
	}
	var h trialHeader
	if err := json.Unmarshal(rest[4:4+hlen], &h); err != nil {
		return trialHeader{}, false
	}
	return h, true
}
