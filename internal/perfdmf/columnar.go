package perfdmf

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"maps"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"
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

// ColumnsFromTrial pivots a trial into columnar form: what trialRows reads
// of it, with every row copied into one block allocation. It refuses what
// trialRows refuses. The result owns fresh blocks — it shares nothing with
// t. Column order is columnOrder's.
func ColumnsFromTrial(t *Trial) (*Columns, error) {
	c, rows, err := trialRows(t)
	if err != nil {
		return nil, err
	}
	c.Metrics, c.Metadata = append([]string(nil), c.Metrics...), maps.Clone(c.Metadata)
	for ev, g := range c.Groups {
		c.Groups[ev] = append([]string(nil), g...) // nil when empty, as Metrics
	}
	// Calls and every column's blocks in one allocation, each cut off at its
	// own end so an append to one cannot run into the next. rows lists the
	// blocks' rows in that order; an absent row stays zeros.
	th, n := c.Threads, len(c.EventNames)*c.Threads
	values := make([]float64, len(rows)*th)
	for i, row := range rows {
		copy(values[i*th:], row)
	}
	block := func(b int) []float64 { return values[b*n : (b+1)*n : (b+1)*n] }
	c.Calls = block(0)
	for i := range c.Cols {
		c.Cols[i].Inc, c.Cols[i].Exc = block(1+2*i), block(2+2*i)
	}
	return c, nil
}

// columnOrder is the order of a trial's columns, in ColumnsFromTrial and in
// the payload written from the trial: registered metrics first (in Metrics
// order, each once), then unregistered metrics found on events, first-seen
// in event order (sorted within one event).
func columnOrder(t *Trial) []string {
	order := make([]string, 0, len(t.Metrics))
	seen := make(map[string]bool, len(t.Metrics))
	for _, m := range t.Metrics {
		if !seen[m] {
			seen[m] = true
			order = append(order, m)
		}
	}
	for _, e := range t.Events {
		if coveredBy(e.Inclusive, order) && coveredBy(e.Exclusive, order) {
			continue
		}
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
	return order
}

// coveredBy reports whether every key of m is one of keys, by looking keys
// up: cheaper than ranging over a map of a few metrics.
func coveredBy(m map[string][]float64, keys []string) bool {
	if len(m) > len(keys) {
		return false
	}
	n := 0
	for _, k := range keys {
		if _, ok := m[k]; ok {
			n++
		}
	}
	return n == len(m)
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
// only beside exclusive). It is part of the payload's one spelling: only such
// columns encode to the canonical bytes of their trial, so Encode writes and
// DecodeColumnar reads no others.
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
//	%PDMFCOL5\n
//	u32 (LE)  header length
//	header    see below
//	calls     value block
//	per column, in header order:
//	    inc-presence bitmap   ceil(NEvents/8) bytes, LSB-first
//	    exc-presence bitmap   ceil(NEvents/8) bytes
//	    inclusive value block
//	    exclusive value block
//
// The header names everything the value blocks are laid out by. Every
// integer in it is a minimal uvarint, and every string is a reference r into
// a table the header builds as it goes: r = 0 is followed by a literal
// (length, then bytes) that becomes the next table entry, r ≥ 1 names entry
// r−1. So each distinct string is written once, where it is first used, and
// every later use costs a byte or two, the way a relational store keys an
// event or metric name once. In order:
//
//	application, experiment, name   one reference each
//	threads
//	metric count, one reference per registered metric
//	event count; per event: its segment count and one reference per
//	    CallpathSeparator segment of its name, its group count and one
//	    reference per group
//	column count, one reference per column metric
//	metadata count, key and value reference per entry, keys ascending
//
// Callpath events share their parents' segments: "main => phase_00 =>
// loop_000" costs three references once "main" and "phase_00" are known, and
// a column metric that is registered, as columns usually are, costs one byte.
// The coordinates come first so a reader that wants only them
// (decodeTrialHeaderPayload) stops after three references.
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
//	0x20+w  offset row: every value is a non-negative integer below 2^53
//	        (sign bit clear: not −0, NaN or Inf). The row's least value, the
//	        base, follows as a w-byte unsigned integer, then each value's
//	        offset from the base in w bytes, all big-endian, where
//	        w = max(bytes(base), bytes(max − base)) is 1–7. Threads ≥ 2
//	        only — counter totals and call counts, whose threads land close
//	        together
//
// A row of zeros is the kind byte alone, call counts take 2 bytes a value
// as literals and one as offsets, a 15-digit count 8 as a literal and 6–7 as
// an offset; a repeated row costs 1 byte and a one-valued row 1+w whatever the
// thread count, an offset row 1 + (1+Threads)·w. Every bit survives (NaN
// payloads, −0) — rows are compared by bit pattern, never as floats — which
// the JSON form cannot represent at all. Each row has exactly one spelling,
// by precedence: a zero row is 0, else a row equal to its inclusive row is 9,
// else a one-valued row is 0x10+w at its narrowest w, else an offset row
// 0x20+w where that is strictly smaller than the literal, else the narrowest
// literal.
// The writer settles each row in one pass, its kind and then its bytes
// (appendRow), whether it reads the row from a Columns' block or straight
// from a Trial's per-event slice, so the payload's size is known only once
// it is written.
//
// The whole payload has exactly one spelling too. The decoder refuses a
// non-minimal varint, a literal equal to an existing table entry, a reference
// past the table, an event whose segments are not what splitting its name
// gives (a segment holding the separator, no segment at all), metadata keys
// out of order, any count larger than the header bytes left (checked before
// anything is sized by it), and every row in a spelling but the writer's: an
// offset row whose width is not minimal, whose offsets hold no zero or are
// all zero, whose values reach 2^53, or which is no smaller than its literal.
// The columns must also be the pivot of the trial they hold (isPivot): their
// order, and zeros under every clear presence bit, follow from the trial.
// So decode → encode reproduces every payload the decoder accepts, byte for
// byte, which is what lets SaveEncoded and the differential test harness
// compare whole trials by comparing encodings. The header's size depends on
// the strings' lengths and on which of them are equal, never on the bytes
// they hold (JSON escaped every "=>" of a callpath as "=\u003e").
//
// Because a zero row expands 1 byte to 8×Threads (and a repeated or one-valued
// row as much), and a reference to a long segment costs a byte or two in
// every callpath that repeats it, the payload length does not bound what a
// payload decodes to; maxDecodedBytes does, for the value blocks and for the
// callpath names (the event names of more than one segment) each, checked
// before either is allocated. Encode refuses the same sizes, so nothing can be
// written that cannot be read.
//
// The previous payload, %PDMFCOL4, is this one without offset rows: the same
// header, and the rows of the first three kinds and literals, a literal
// wherever this version writes an offset row. It stays readable as a legacy
// form: DecodeColumnar reads both through one row loop, holding each version
// to its own spellings, and only %PDMFCOL5 is written. The versions before it
// are refused by name (see DecodeColumnar).

const (
	columnarMagic     = "%PDMFCOL5\n"
	columnarMagicPrev = "%PDMFCOL4\n" // same length: the header sits at one offset in both
)

// retiredColumnarMagics are the payload versions before the previous one.
var retiredColumnarMagics = []string{"%PDMFCOL1\n", "%PDMFCOL2\n", "%PDMFCOL3\n"}

// Row kinds above the literal widths 0–8.
const (
	rowSameAsInc = 9    // an exclusive row equal to its inclusive row
	rowConst     = 0x10 // rowConst+w: one w-byte value on every thread
	rowOffset    = 0x20 // rowOffset+w: a w-byte base, then a w-byte offset per thread
)

// maxOffsetValue bounds the values of an offset row: every integer below it
// is a float64 exactly. maxOffsetBits is its bit pattern: biased exponent
// 1023+53, fraction zero.
const (
	maxOffsetValue = 1 << 53
	maxOffsetBits  = (1023 + 53) << 52
)

// maxDecodedBytes bounds the value blocks a payload may decode to, and the
// callpath names its header spells out: 8× the largest body the service
// accepts (dmfwire.MaxTrialBody), so any upload whose rows average a stored
// byte per value or more fits.
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
// trial in the current form, rather than the previous one (%PDMFCOL4).
func IsColumnar(payload []byte) bool {
	return bytes.HasPrefix(payload, []byte(columnarMagic))
}

func isColumnarPrev(payload []byte) bool {
	return bytes.HasPrefix(payload, []byte(columnarMagicPrev))
}

// Encode serializes the columnar trial into the binary payload format. It
// refuses columns that are not the pivot of their trial, which no decoder
// reads.
func (c *Columns) Encode() ([]byte, error) {
	e := encoders.Get().(*encoder)
	defer encoders.Put(e)
	if err := e.columns("", c); err != nil {
		return nil, err
	}
	if !c.isPivot() {
		return nil, fmt.Errorf("perfdmf: encode columnar %q: columns are not the pivot of their trial", c.Name)
	}
	return exactCopy(e.buf), nil
}

// encoder writes payloads, each row in one pass: its kind picked and its
// bytes written at once (appendRow). write is the one writer of a payload's
// rows: columns cuts them from a Columns' blocks, and a trial's writers hand
// it trialRows' rows, which share the trial's per-event slices.
type encoder struct {
	buf  []byte
	ints []uint64    // the row appendRow is testing for an offset row, as integers
	rows [][]float64 // the rows columns cuts from the blocks it writes
}

// encoders holds the encoders every payload is written with. Save drops a
// trial's encoding once it is persisted and the others copy it out
// (exactCopy), so the next one writes into the same memory instead of
// growing a fresh buffer that the collector then frees.
var encoders = sync.Pool{New: func() any { return new(encoder) }}

// exactCopy returns b in one allocation of its exact size.
func exactCopy(b []byte) []byte {
	return append(make([]byte, 0, len(b)), b...)
}

// columns writes prefix and the payload of c into e.buf, replacing what it
// held, once c is encodable, its blocks and flags have the dimensions its
// dictionary gives and no column has inclusive data without exclusive data
// on an event.
func (e *encoder) columns(prefix string, c *Columns) error {
	if err := c.encodable(); err != nil {
		return err
	}
	nEv, th := len(c.EventNames), c.Threads
	block := nEv * th
	if len(c.Calls) != block || len(c.Groups) != nEv {
		return fmt.Errorf("perfdmf: encode columnar %q: inconsistent dimensions", c.Name)
	}
	for i := range c.Cols {
		col := &c.Cols[i]
		if len(col.Inc) != block || len(col.Exc) != block ||
			len(col.IncPresent) != nEv || len(col.ExcPresent) != nEv {
			return fmt.Errorf("perfdmf: encode columnar %q: column %q has inconsistent dimensions",
				c.Name, col.Metric)
		}
		for ev, inc := range col.IncPresent {
			if inc && !col.ExcPresent[ev] {
				return fmt.Errorf("perfdmf: encode columnar %q: event %q metric %q has inclusive but no exclusive data",
					c.Name, c.EventNames[ev], col.Metric)
			}
		}
	}
	e.rows = slices.Grow(e.rows[:0], nEv*(1+2*len(c.Cols)))
	cut := func(b []float64) {
		for lo := 0; lo < block; lo += th {
			e.rows = append(e.rows, b[lo:lo+th])
		}
	}
	cut(c.Calls)
	for i := range c.Cols {
		cut(c.Cols[i].Inc)
		cut(c.Cols[i].Exc)
	}
	e.write(prefix, c, e.rows)
	clear(e.rows) // the pool keeps no block alive
	return nil
}

// trialRows is the one reading of a trial and the one check of its shape:
// Validate is this check, ColumnsFromTrial copies what it reads, and
// EncodeTrial, MarshalColumnar and a file-backed Save write it. It refuses,
// in this order, event by event and within one column by column: no
// threads, a repeated event name, a calls, inclusive or exclusive row
// without Threads entries, and inclusive data without exclusive data beside
// it. It reads the header fields and the columns (in columnOrder, each with
// its presence: whether the event has that row) into h, which holds no
// value blocks, and the rows into rows, block after block in write order —
// calls, then per column its inclusive and its exclusive rows — sharing t's
// slices, nil where the event has no such row.
func trialRows(t *Trial) (h *Columns, rows [][]float64, err error) {
	if t.Threads <= 0 {
		return nil, nil, fmt.Errorf("perfdmf: trial %q has %d threads", t.Name, t.Threads)
	}
	th, nEv := t.Threads, len(t.Events)
	h = &Columns{App: t.App, Experiment: t.Experiment, Name: t.Name, Threads: th, Metrics: t.Metrics,
		Groups: make([][]string, nEv), Metadata: t.Metadata}
	order := columnOrder(t)
	h.Cols = make([]MetricColumn, len(order))
	flags := make([]bool, 2*len(order)*nEv)
	for i, m := range order {
		f := flags[2*i*nEv:]
		h.Cols[i] = MetricColumn{Metric: m, IncPresent: f[:nEv:nEv], ExcPresent: f[nEv : 2*nEv : 2*nEv]}
	}
	rows = make([][]float64, nEv*(1+2*len(order)))
	// The names the duplicate check enters, once each in event order, are
	// the dictionary.
	seenEv := newStringTable(nEv)
	for ev, event := range t.Events {
		ref, slot := seenEv.find(event.Name)
		if ref > 0 {
			return nil, nil, fmt.Errorf("perfdmf: duplicate event %q in trial %q", event.Name, t.Name)
		}
		seenEv.add(event.Name, slot)
		h.Groups[ev] = event.Groups
		if len(event.Calls) != th {
			return nil, nil, fmt.Errorf("perfdmf: event %q has %d call entries, want %d", event.Name, len(event.Calls), th)
		}
		rows[ev] = event.Calls
		for ci := range h.Cols {
			col := &h.Cols[ci]
			inc, incOK := event.Inclusive[col.Metric]
			if incOK && len(inc) != th {
				return nil, nil, fmt.Errorf("perfdmf: event %q metric %q has %d inclusive entries, want %d",
					event.Name, col.Metric, len(inc), th)
			}
			exc, excOK := event.Exclusive[col.Metric]
			if excOK && len(exc) != th {
				return nil, nil, fmt.Errorf("perfdmf: event %q metric %q has %d exclusive entries, want %d",
					event.Name, col.Metric, len(exc), th)
			}
			if incOK && !excOK {
				return nil, nil, fmt.Errorf("perfdmf: event %q metric %q has inclusive but no exclusive data",
					event.Name, col.Metric)
			}
			// th ≥ 1, so a present row is never nil.
			col.IncPresent[ev], col.ExcPresent[ev] = incOK, excOK
			rows[(1+2*ci)*nEv+ev], rows[(2+2*ci)*nEv+ev] = inc, exc
		}
	}
	h.EventNames = seenEv.strs
	return h, rows, nil
}

// trial writes prefix and the payload of the trial trialRows read into h
// and rows into e.buf, replacing what it held, once h is encodable.
func (e *encoder) trial(prefix string, h *Columns, rows [][]float64) error {
	if err := h.encodable(); err != nil {
		return err
	}
	e.write(prefix, h, rows)
	return nil
}

// write replaces what e.buf held with prefix and the payload of the trial h
// heads: h's header, then the calls block and, per column, its presence
// bitmaps, from h's flags, and its inclusive and exclusive blocks. rows
// holds the blocks' rows in that order, NEvents a block; a nil row is a row
// of zeros.
func (e *encoder) write(prefix string, h *Columns, rows [][]float64) {
	nEv := len(h.EventNames)
	e.start(prefix, h)
	for _, row := range rows[:nEv] {
		e.appendRow(row, nil)
	}
	for i := range h.Cols {
		inc, exc := rows[(1+2*i)*nEv:(2+2*i)*nEv], rows[(2+2*i)*nEv:(3+2*i)*nEv]
		e.buf = appendBitmap(e.buf, h.Cols[i].IncPresent)
		e.buf = appendBitmap(e.buf, h.Cols[i].ExcPresent)
		for _, row := range inc {
			e.appendRow(row, nil)
		}
		for ev, row := range exc {
			e.appendRow(row, inc[ev])
		}
	}
}

// seal appends the envelope trailer to a payload written behind
// envelopeMagic and returns the whole encoding, which aliases e.buf.
func (e *encoder) seal() []byte {
	e.buf = appendEnvelopeTrailer(e.buf, e.buf[len(envelopeMagic):])
	return e.buf
}

// encodable refuses what the decoder would refuse to read back: a
// non-positive thread count, value blocks past maxDecodedBytes, and callpath
// names spelling out more than it.
func (c *Columns) encodable() error {
	nEv, th := len(c.EventNames), c.Threads
	if th <= 0 {
		return fmt.Errorf("perfdmf: encode columnar %q: non-positive threads %d", c.Name, th)
	}
	if !decodableSize(nEv, th, len(c.Cols)) {
		return fmt.Errorf("perfdmf: encode columnar %q: %d×%d values in %d columns exceed the %d-byte decode bound",
			c.Name, nEv, th, len(c.Cols), maxDecodedBytes)
	}
	// The callpath names, those of more than one segment, are held to the
	// bound the decoder holds them to; only names this long can pass it.
	if nameBytes(c.EventNames) > maxDecodedBytes {
		spelled := 0
		for _, name := range c.EventNames {
			if strings.Contains(name, CallpathSeparator) {
				spelled += len(name)
			}
		}
		if spelled > maxDecodedBytes {
			return fmt.Errorf("perfdmf: encode columnar %q: callpath names of %d bytes exceed the %d-byte decode bound",
				c.Name, spelled, maxDecodedBytes)
		}
	}
	return nil
}

func nameBytes(names []string) int {
	n := 0
	for _, name := range names {
		n += len(name)
	}
	return n
}

// start replaces what e.buf held with prefix, the magic and the header of c,
// in a buffer with room for the header guessed from the names and a kind
// byte a row: the rows grow it as they are written. It sizes e.ints for c's
// rows.
func (e *encoder) start(prefix string, c *Columns) {
	e.ints = slices.Grow(e.ints[:0], c.Threads)[:c.Threads]
	nEv := len(c.EventNames)
	if need := len(prefix) + len(columnarMagic) + 4 + 64 + 2*nEv + nameBytes(c.EventNames) + nEv*(1+2*len(c.Cols)); cap(e.buf) < need {
		e.buf = make([]byte, 0, need)
	}
	e.buf = append(e.buf[:0], prefix...)
	e.buf = append(e.buf, columnarMagic...)
	at := len(e.buf)
	e.buf = c.appendHeader(append(e.buf, 0, 0, 0, 0))
	binary.LittleEndian.PutUint32(e.buf[at:], uint32(len(e.buf)-at-4))
}

// appendHeader appends the binary header of c: see the format comment.
func (c *Columns) appendHeader(buf []byte) []byte {
	w := headerWriter{buf: buf, table: newStringTable(8 + len(c.Metrics) + len(c.EventNames) + 2*len(c.Metadata))}
	w.str(c.App)
	w.str(c.Experiment)
	w.str(c.Name)
	w.uint(c.Threads)
	w.uint(len(c.Metrics))
	for _, m := range c.Metrics {
		w.str(m)
	}
	w.uint(len(c.EventNames))
	var segs [8]string // most callpaths are no deeper
	for i, name := range c.EventNames {
		parts := segs[:0]
		for more := true; more; {
			var seg string
			seg, name, more = strings.Cut(name, CallpathSeparator)
			parts = append(parts, seg)
		}
		w.uint(len(parts))
		for _, seg := range parts {
			w.str(seg)
		}
		w.uint(len(c.Groups[i]))
		for _, g := range c.Groups[i] {
			w.str(g)
		}
	}
	w.uint(len(c.Cols))
	for i := range c.Cols {
		w.str(c.Cols[i].Metric)
	}
	keys := make([]string, 0, len(c.Metadata))
	for k := range c.Metadata {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.uint(len(keys))
	for _, k := range keys {
		w.str(k)
		w.str(c.Metadata[k])
	}
	return w.buf
}

// headerWriter appends header integers and string references.
type headerWriter struct {
	buf   []byte
	table stringTable
}

func (w *headerWriter) uint(n int) {
	w.buf = binary.AppendUvarint(w.buf, uint64(n))
}

// str appends the reference of s, a literal if s is new.
func (w *headerWriter) str(s string) {
	ref, slot := w.table.find(s)
	if ref > 0 {
		w.buf = binary.AppendUvarint(w.buf, ref)
		return
	}
	w.table.add(s, slot)
	w.buf = append(w.buf, 0)
	w.buf = binary.AppendUvarint(w.buf, uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// stringTable numbers distinct strings in the order they are added, as the
// header's string table does on both sides: a string's reference is its
// index + 1. An open-addressing index over maphash makes a lookup one hash
// and, mostly, one comparison, and making one clears four bytes a slot: for
// a trial of a few dozen events, the header writer and ColumnsFromTrial's
// duplicate check each spend measurably less on it than on a presized map.
type stringTable struct {
	strs  []string
	slots []uint32 // a power of two, at most half full: 0 or a reference
}

var stringTableSeed = maphash.MakeSeed()

// newStringTable returns a table sized for about n strings.
func newStringTable(n int) stringTable {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	return stringTable{strs: make([]string, 0, n), slots: make([]uint32, size)}
}

// find returns the reference of s, 0 when the table does not hold it, and
// the slot where it is or, for add, would go.
func (t *stringTable) find(s string) (ref uint64, slot int) {
	mask := len(t.slots) - 1
	for i := int(maphash.String(stringTableSeed, s)) & mask; ; i = (i + 1) & mask {
		r := t.slots[i]
		if r == 0 || t.strs[r-1] == s {
			return uint64(r), i
		}
	}
}

// add enters s, which find did not hold, at the slot find returned.
func (t *stringTable) add(s string, slot int) {
	t.strs = append(t.strs, s)
	t.slots[slot] = uint32(len(t.strs))
	if 2*len(t.strs) <= len(t.slots) {
		return
	}
	t.slots = make([]uint32, 2*len(t.slots))
	mask := len(t.slots) - 1
	for r, s := range t.strs {
		i := int(maphash.String(stringTableSeed, s)) & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = uint32(r + 1)
	}
}

// rowWidth is the narrowest byte width that keeps every set bit of a row
// whose bit patterns OR to or: 0 for a row of zeros, 8 when any value uses
// its lowest byte.
func rowWidth(or uint64) int {
	return 8 - bits.TrailingZeros64(or)/8
}

// appendRow appends one row of a value block to e.buf: the kind byte the
// format comment's precedence picks, then what that kind says follows. inc
// is the inclusive row of the same event and column when row is an
// exclusive one, else nil; a nil row is a row of zeros. The comparisons
// behind the kinds above 8 each stop at the first value that differs, or for
// an offset row the first that is not an integer, which in a row of
// measurements is the first. Every value is written as a whole 8-byte word,
// w bytes after the one before it: the low 8−w bytes are zero by the width
// rule, and the next value or row overwrites them. So the buffer grows row by
// row, keeping room for the widest row and the 7 bytes past its end the last
// word writes.
func (e *encoder) appendRow(row, inc []float64) {
	w := widthOf(row)
	if w == 0 {
		e.buf = append(e.buf, 0)
		return
	}
	th, n := len(row), len(e.buf)
	if room := 1 + 8*th + 7; cap(e.buf)-n < room {
		e.buf = slices.Grow(e.buf, max(room, cap(e.buf))) // double: a payload is written in one go
	}
	out := e.buf[n:cap(e.buf)]
	size := 1
	switch {
	case inc != nil && sameBits(row, inc):
		out[0] = rowSameAsInc
	case th >= 2 && oneValued(row):
		out[0] = byte(rowConst + w)
		binary.BigEndian.PutUint64(out[1:], math.Float64bits(row[0]))
		size += w
	default:
		// An offset row takes at least 1 + (1+Threads) bytes, so only a
		// literal of width 2 or more can lose to one.
		if th >= 2 && w >= 2 {
			if base, span, ok := offsetInts(e.ints, row); ok {
				if ow := offsetBytes(base, span); (1+th)*ow < th*w {
					out[0] = byte(rowOffset + ow)
					putOffsets(out[1:], e.ints, base, ow)
					e.buf = e.buf[:n+1+(1+th)*ow]
					return
				}
			}
		}
		out[0] = byte(w)
		for i, x := range row {
			binary.BigEndian.PutUint64(out[1+i*w:], math.Float64bits(x))
		}
		size += th * w
	}
	e.buf = e.buf[:n+size]
}

// offsetInts converts row to integers in ints and returns the least of them
// and the greatest less the least, when every value of row is a
// non-negative integer below maxOffsetValue — which is what an offset row
// can hold. It stops at the first value that is not. Among bit patterns
// with the sign bit clear the order is that of the values, so one integer
// comparison refuses −0 and every negative value, NaN, ±Inf and 2^53 or
// more; the conversion back refuses a value that is not whole.
func offsetInts(ints []uint64, row []float64) (base, span uint64, ok bool) {
	ints = ints[:len(row)]
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for i, x := range row {
		b := math.Float64bits(x)
		if b >= maxOffsetBits {
			return 0, 0, false
		}
		v := int64(x) // exact below 2^53; a signed conversion is the cheaper
		if math.Float64bits(float64(v)) != b {
			return 0, 0, false
		}
		ints[i], lo, hi = uint64(v), min(lo, uint64(v)), max(hi, uint64(v))
	}
	return lo, hi - lo, true
}

// offsetBytes is the width of an offset row of this base and greatest
// offset: the bytes the larger of the two needs.
func offsetBytes(base, span uint64) int {
	return (bits.Len64(max(base, span)) + 7) / 8
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

// unpackRow is the inverse of a literal row's writer: it fills row from the w-byte (1–7)
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

// putOffsets writes an offset row of width w (1–7) after its kind byte to
// the front of out, which has 8−w bytes of room past it: base, then each of
// ints less base, each integer shifted to the top of its 8-byte word so the
// zero bytes below it are overwritten by the next.
func putOffsets(out []byte, ints []uint64, base uint64, w int) {
	shift := uint(64-8*w) & 63
	binary.BigEndian.PutUint64(out, base<<shift)
	out = out[w:]
	for i, v := range ints {
		binary.BigEndian.PutUint64(out[i*w:], (v-base)<<shift)
	}
}

// unpackOffsets is the inverse of putOffsets: it fills row from the offset
// row of width w (1–7) at the front of src, which may extend past it, by
// 8-byte loads shifted down to the integer at their top, and returns the
// base and the least and greatest offset it read.
func unpackOffsets(row []float64, src []byte, w int) (base, lo, hi uint64) {
	shift := uint(64-8*w) & 63
	fast := fullWordValues(len(src), w, 1+len(row)) // the base is value 0
	head := row[:max(fast-1, 0)]
	if fast > 0 {
		base = binary.BigEndian.Uint64(src) >> shift
	} else {
		for k := 0; k < w; k++ {
			base = base<<8 | uint64(src[k])
		}
	}
	lo = math.MaxUint64
	off := w
	for i := range head {
		v := binary.BigEndian.Uint64(src[off:off+8]) >> shift
		lo, hi = min(lo, v), max(hi, v)
		head[i] = float64(int64(base + v)) // below 2^57: exact below 2^53, refused above
		off += w
	}
	for i := len(head); i < len(row); i++ {
		var v uint64
		for k := 0; k < w; k++ {
			v = v<<8 | uint64(src[off+k])
		}
		lo, hi = min(lo, v), max(hi, v)
		row[i] = float64(int64(base + v))
		off += w
	}
	return base, lo, hi
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
// offsets is whether the payload's version has offset rows (%PDMFCOL5): in
// %PDMFCOL4 their kind is refused and a literal is never held to be larger
// than one. ints is where offsetInts puts a row's integers.
type blockReader struct {
	rest    []byte
	nEv, th int
	offsets bool
	ints    []uint64
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
			if th >= 2 && oneValued(row) {
				return nil, corruptf("row %d holds one value and is spelled out", ev)
			}
			if r.offsets && th >= 2 && k >= 2 {
				if r.ints == nil {
					r.ints = make([]uint64, th)
				}
				if base, span, ok := offsetInts(r.ints, row); ok && (1+th)*offsetBytes(base, span) < th*k {
					return nil, corruptf("row %d is spelled out where an offset row is smaller", ev)
				}
			}
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
		case r.offsets && k > rowOffset && k < rowOffset+8:
			if th < 2 {
				return nil, corruptf("row %d is an offset row in a trial of one thread", ev)
			}
			w := k - rowOffset
			src := r.rest // past the row's end too, as for a literal
			if _, ok := r.take(w * (1 + th)); !ok {
				return nil, corruptf("truncated inside row %d", ev)
			}
			base, lo, hi := unpackOffsets(row, src, w)
			switch {
			case lo != 0:
				return nil, corruptf("offset row %d has a base below its least value", ev)
			case hi == 0:
				return nil, corruptf("offset row %d holds one value", ev)
			case base+hi >= maxOffsetValue:
				return nil, corruptf("offset row %d reaches 2^53", ev)
			case offsetBytes(base, hi) != w:
				return nil, corruptf("offset row %d stored at width %d needs %d", ev, w, offsetBytes(base, hi))
			case (1+th)*w >= th*widthOf(row):
				return nil, corruptf("offset row %d is no smaller than its literal", ev)
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

// DecodeColumnar parses a binary columnar payload, %PDMFCOL5 or the legacy
// %PDMFCOL4. Any structural problem — bad magic, a header not in its one
// spelling, truncated blocks, dimension/length mismatch, a row not in its
// version's one spelling, duplicate names, presence inconsistent with Trial
// validity, columns that are not the pivot of the trial they hold — wraps
// ErrCorrupt. A successful decode always yields a Columns whose Trial()
// passes Validate and which is how ColumnsFromTrial pivots that trial, so
// re-encoding a decoded %PDMFCOL5 payload reproduces the input bytes.
func DecodeColumnar(payload []byte) (*Columns, error) {
	cur := IsColumnar(payload)
	if !cur && !isColumnarPrev(payload) {
		for _, m := range retiredColumnarMagics {
			if bytes.HasPrefix(payload, []byte(m)) {
				return nil, retiredForm(m[:len(m)-1])
			}
		}
		if looksLikeJSON(payload) {
			return nil, retiredForm("trial JSON inside the envelope")
		}
		return nil, corruptf("missing %q magic", columnarMagic[:len(columnarMagic)-1])
	}
	hb, blocks, err := splitHeader(payload)
	if err != nil {
		return nil, err
	}
	c, columns, err := decodeHeader(hb)
	if err != nil {
		return nil, err
	}
	nEv := len(c.EventNames)
	// Size sanity before any dimension-proportional allocation.
	if !decodableSize(nEv, c.Threads, len(columns)) {
		return nil, corruptf("dimensions %d×%d in %d columns decode to more than %d bytes",
			nEv, c.Threads, len(columns), maxDecodedBytes)
	}
	seenEv := make(map[string]bool, nEv)
	for _, name := range c.EventNames {
		if seenEv[name] {
			return nil, corruptf("duplicate event %q", name)
		}
		seenEv[name] = true
	}
	r := &blockReader{rest: blocks, nEv: nEv, th: c.Threads, offsets: cur}
	bitmap := (nEv + 7) / 8
	if c.Calls, err = r.block(nil); err != nil {
		return nil, fmt.Errorf("%w (calls block)", err)
	}
	seenCol := make(map[string]bool, len(columns))
	c.Cols = make([]MetricColumn, len(columns))
	for i, m := range columns {
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
	if !c.isPivot() {
		return nil, corruptf("not the pivot of trial %q/%q/%q", c.App, c.Experiment, c.Name)
	}
	return c, nil
}

// splitHeader cuts a payload of either version read after its magic into
// the header and the bytes that follow it.
func splitHeader(payload []byte) (header, rest []byte, err error) {
	rest = payload[len(columnarMagic):]
	if len(rest) < 4 {
		return nil, nil, corruptf("truncated header length")
	}
	hlen := binary.LittleEndian.Uint32(rest)
	rest = rest[4:]
	if uint64(hlen) > uint64(len(rest)) {
		return nil, nil, corruptf("header length %d exceeds payload", hlen)
	}
	return rest[:hlen], rest[hlen:], nil
}

// decodeHeader reads the header of either version: a Columns holding everything but the
// value blocks, and the column metrics in order. It refuses every spelling
// appendHeader does not write. The strings it returns share two
// allocations: the header's bytes and the callpaths' joined names.
func decodeHeader(hb []byte) (*Columns, []string, error) {
	r := newHeaderReader(hb, min(len(hb)/8, 1024))
	c := &Columns{App: r.str(), Experiment: r.str(), Name: r.str()}
	if th := r.uint(); r.err == nil && (th == 0 || th > math.MaxInt) {
		r.fail("threads %d out of range", th)
	} else {
		c.Threads = int(th)
	}
	c.Metrics = r.strs()
	// A count only says how many items follow, each still to be read: what
	// is allocated for them grows with what is read.
	nEv := r.count()
	c.EventNames, c.Groups = make([]string, 0, min(nEv, 1024)), make([][]string, 0, min(nEv, 1024))
	var (
		multi  []int    // the events of more than one segment
		counts []int    // their segment counts
		segs   []string // their segments, back to back
		size   int      // the length of their names
	)
	for i := 0; i < nEv && r.err == nil; i++ {
		name := "" // a callpath's is joined below
		switch n := r.count(); {
		case r.err != nil:
		case n == 0:
			r.fail("event %d has no segments", i)
		case n == 1:
			if name = r.str(); strings.Contains(name, CallpathSeparator) {
				r.fail("segment %q holds the separator", name)
			}
		default:
			multi, counts = append(multi, i), append(counts, n)
			size += (n - 1) * len(CallpathSeparator)
			for j := 0; j < n && r.err == nil; j++ {
				seg := r.str()
				segs, size = append(segs, seg), size+len(seg)
			}
			// A reference costs a byte or two however long its string is,
			// so the names the segments spell out are bounded like the
			// value blocks, by their total before any is joined.
			if size > maxDecodedBytes {
				r.fail("event names spell out more than %d bytes", maxDecodedBytes)
			}
		}
		c.EventNames, c.Groups = append(c.EventNames, name), append(c.Groups, r.strs())
	}
	if len(multi) > 0 && r.err == nil {
		// Joined once all are read and their total is in bounds: one
		// allocation, each name a substring of it.
		var names strings.Builder
		names.Grow(size)
		for k, i := range multi {
			start := names.Len()
			r.segEnds = r.segEnds[:0]
			for j, seg := range segs[:counts[k]] {
				if j > 0 {
					names.WriteString(CallpathSeparator)
				}
				names.WriteString(seg)
				r.segEnds = append(r.segEnds, names.Len()-start)
			}
			segs = segs[counts[k]:]
			c.EventNames[i] = names.String()[start:]
			r.checkSplit(c.EventNames[i])
		}
	}
	columns := r.strs()
	if n := r.count(); n > 0 {
		c.Metadata = make(map[string]string, min(n, 1024))
		prev := ""
		for i := 0; i < n && r.err == nil; i++ {
			k, v := r.str(), r.str()
			if i > 0 && k <= prev {
				r.fail("metadata key %q after %q", k, prev)
			}
			c.Metadata[k], prev = v, k
		}
	}
	if r.err == nil && r.off != len(r.src) {
		r.fail("%d bytes after the header's last field", len(r.src)-r.off)
	}
	if r.err != nil {
		return nil, nil, r.err
	}
	return c, columns, nil
}

// headerReader reads what headerWriter writes, from hb at off. src is the
// same bytes as a string: literals are substrings of it, so the strings of a
// header share its one allocation. The first failure sticks in err; every
// read after it returns a zero value.
type headerReader struct {
	hb      []byte
	src     string
	off     int
	table   stringTable
	segEnds []int // where each segment of the event being read ends in its name
	err     error
}

// newHeaderReader reads hb, its table sized for about n strings.
func newHeaderReader(hb []byte, n int) headerReader {
	return headerReader{hb: hb, src: string(hb), table: newStringTable(n)}
}

func (r *headerReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = corruptf("header: "+format, args...)
	}
}

// uint reads a minimal uvarint.
func (r *headerReader) uint() uint64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Uvarint(r.hb[r.off:])
	switch {
	case n == 0:
		r.fail("truncated")
	case n < 0:
		r.fail("varint overflows 64 bits")
	case n > 1 && r.hb[r.off+n-1] == 0:
		r.fail("non-minimal varint")
	default:
		r.off += n
		return x
	}
	return 0
}

// count reads the number of items that follow. Each takes at least one more
// byte, so a count larger than the bytes left is refused before anything is
// sized by it.
func (r *headerReader) count() int {
	n := r.uint()
	if left := len(r.src) - r.off; n > uint64(left) {
		r.fail("count %d exceeds the %d bytes left", n, left)
		return 0
	}
	return int(n)
}

// strs reads a count and that many string references; nil for none.
func (r *headerReader) strs() []string {
	n := r.count()
	if n == 0 {
		return nil
	}
	out := make([]string, 0, min(n, 1024))
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, r.str())
	}
	return out
}

// str reads a string reference.
func (r *headerReader) str() string {
	ref := r.uint()
	switch {
	case r.err != nil:
		return ""
	case ref > uint64(len(r.table.strs)):
		r.fail("string reference %d past a table of %d", ref, len(r.table.strs))
		return ""
	case ref > 0:
		return r.table.strs[ref-1]
	}
	n := r.uint()
	if left := len(r.src) - r.off; n > uint64(left) {
		r.fail("string of %d bytes exceeds the %d left", n, left)
		return ""
	}
	s := r.src[r.off : r.off+int(n)]
	r.off += int(n)
	ref, slot := r.table.find(s)
	if ref > 0 {
		r.fail("literal %q repeats table entry %d", s, ref)
		return ""
	}
	r.table.add(s, slot)
	return s
}

// checkSplit refuses a callpath whose segments, joined into name and ending
// at segEnds, are not what splitting name gives back: a segment holding the
// separator, or one whose end starts one ("x =>" then "y" join to
// "x => => y", which splits as "x", "=> y"). Split takes the leftmost
// separator each time, so one must start right where each segment but the
// last ends, and none inside the last.
func (r *headerReader) checkSplit(name string) {
	off := 0
	for j, end := range r.segEnds {
		at := strings.Index(name[off:], CallpathSeparator)
		if j == len(r.segEnds)-1 && at >= 0 || j < len(r.segEnds)-1 && off+at != end {
			r.fail("segments of %q do not split back from it", name)
			return
		}
		off = end + len(CallpathSeparator)
	}
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
	h, rows, err := trialRows(t)
	if err != nil {
		return nil, err
	}
	e := encoders.Get().(*encoder)
	defer encoders.Put(e)
	if err := e.trial("", h, rows); err != nil {
		return nil, err
	}
	return exactCopy(e.buf), nil
}

// UnmarshalColumnar decodes a binary columnar payload into a Trial.
func UnmarshalColumnar(payload []byte) (*Trial, error) {
	c, err := DecodeColumnar(payload)
	if err != nil {
		return nil, err
	}
	return c.Trial(), nil
}

// decodeTrialHeaderPayload reads the coordinates of the trial a columnar
// envelope payload of either version holds and nothing after them: the first
// three references of its header. It checks nothing else; ok is false
// without them.
func decodeTrialHeaderPayload(payload []byte) (app, experiment, name string, ok bool) {
	if !IsColumnar(payload) && !isColumnarPrev(payload) {
		return "", "", "", false
	}
	hb, _, err := splitHeader(payload)
	if err != nil {
		return "", "", "", false
	}
	r := newHeaderReader(hb, 3)
	app, experiment, name = r.str(), r.str(), r.str()
	return app, experiment, name, r.err == nil
}
