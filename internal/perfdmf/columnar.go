package perfdmf

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
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
		// The dictionary requires unique names (Validate does too); trials
		// violating that stay on the row-oriented paths.
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
	for ev, name := range c.EventNames {
		lo, hi := ev*th, (ev+1)*th
		e := &Event{
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

// --- binary columnar payload -------------------------------------------
//
// The on-disk/wire form of a columnar trial is a deterministic binary
// payload carried inside the standard %PDMF1 envelope (which contributes
// the CRC32-C integrity check, so the payload itself carries none):
//
//	%PDMFCOL1\n
//	u32 (LE)  header length
//	header    JSON: application/experiment/name/threads, registered
//	          metrics, event dictionary (name+groups), column metric
//	          order, metadata
//	calls     NEvents×Threads float64 (LE bits)
//	per column, in header order:
//	    inc-presence bitmap   ceil(NEvents/8) bytes, LSB-first
//	    exc-presence bitmap   ceil(NEvents/8) bytes
//	    inclusive block       NEvents×Threads float64
//	    exclusive block       NEvents×Threads float64
//
// Every dimension is validated against the actual payload length before
// any block is allocated, so truncated or dimension-inflated inputs fail
// fast with ErrCorrupt instead of allocating. Float values are raw IEEE
// bits: NaN payloads survive, which the JSON form cannot represent at
// all. The encoding of a given Columns value is canonical — byte-for-byte
// reproducible — which is what lets the differential test harness compare
// whole trials by comparing encodings.

const columnarMagic = "%PDMFCOL1\n"

// IsColumnar reports whether an envelope payload is a binary columnar
// trial rather than trial JSON.
func IsColumnar(payload []byte) bool {
	return bytes.HasPrefix(payload, []byte(columnarMagic))
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
	nEv, th := len(c.EventNames), c.Threads
	if th <= 0 {
		return nil, fmt.Errorf("perfdmf: encode columnar %q: non-positive threads %d", c.Name, th)
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
	buf := make([]byte, 0, len(columnarMagic)+4+len(hb)+8*block+len(c.Cols)*(2*bitmap+16*block))
	buf = append(buf, columnarMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(hb)))
	buf = append(buf, hb...)
	buf = appendF64Block(buf, c.Calls)
	for i := range c.Cols {
		col := &c.Cols[i]
		buf = appendBitmap(buf, col.IncPresent)
		buf = appendBitmap(buf, col.ExcPresent)
		buf = appendF64Block(buf, col.Inc)
		buf = appendF64Block(buf, col.Exc)
	}
	return buf, nil
}

func appendF64Block(buf []byte, xs []float64) []byte {
	for _, x := range xs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
	}
	return buf
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

// DecodeColumnar parses a binary columnar payload. Any structural
// problem — bad magic, truncated blocks, dimension/length mismatch,
// duplicate names, presence inconsistent with Trial validity — wraps
// ErrCorrupt. A successful decode always yields a Columns whose Trial()
// passes Validate, and re-encoding it reproduces the input bytes.
func DecodeColumnar(payload []byte) (*Columns, error) {
	if !IsColumnar(payload) {
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
	rest = rest[hlen:]
	if hdr.Threads <= 0 {
		return nil, corruptf("non-positive threads %d", hdr.Threads)
	}
	nEv := len(hdr.Events)
	th := uint64(hdr.Threads)
	// Size sanity before any dimension-proportional allocation: the calls
	// block alone needs 8*nEv*th bytes, which bounds both factors.
	if nEv > 0 && th > uint64(len(rest))/8/uint64(nEv) {
		return nil, corruptf("dimensions %d×%d exceed payload size", nEv, hdr.Threads)
	}
	block := uint64(nEv) * th
	bitmap := uint64((nEv + 7) / 8)
	off := uint64(0)
	take := func(n uint64) ([]byte, bool) {
		if uint64(len(rest))-off < n {
			return nil, false
		}
		b := rest[off : off+n]
		off += n
		return b, true
	}
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
	raw, ok := take(8 * block)
	if !ok {
		return nil, corruptf("truncated calls block")
	}
	c.Calls = decodeF64Block(raw)
	seenCol := make(map[string]bool, len(hdr.Columns))
	c.Cols = make([]MetricColumn, len(hdr.Columns))
	for i, m := range hdr.Columns {
		if seenCol[m] {
			return nil, corruptf("duplicate column %q", m)
		}
		seenCol[m] = true
		col := &c.Cols[i]
		col.Metric = m
		ib, ok1 := take(bitmap)
		eb, ok2 := take(bitmap)
		if !ok1 || !ok2 {
			return nil, corruptf("truncated presence bitmap for %q", m)
		}
		var err error
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
		ri, ok1 := take(8 * block)
		re, ok2 := take(8 * block)
		if !ok1 || !ok2 {
			return nil, corruptf("truncated value blocks for %q", m)
		}
		col.Inc = decodeF64Block(ri)
		col.Exc = decodeF64Block(re)
	}
	if off != uint64(len(rest)) {
		return nil, corruptf("%d trailing bytes", uint64(len(rest))-off)
	}
	return c, nil
}

func decodeF64Block(raw []byte) []float64 {
	xs := make([]float64, len(raw)/8)
	for i := range xs {
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return xs
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

// decodeTrialPayload turns an envelope payload — columnar binary or, in
// legacy files, trial JSON — into a validated Trial. Decode and validation
// failures wrap ErrCorrupt.
func decodeTrialPayload(payload []byte) (*Trial, error) {
	var t *Trial
	if IsColumnar(payload) {
		var err error
		if t, err = UnmarshalColumnar(payload); err != nil {
			return nil, err
		}
	} else {
		t = &Trial{}
		if err := json.Unmarshal(payload, t); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return t, nil
}

// decodeTrialHeaderPayload extracts the identifying header from an
// envelope payload of either format. For columnar payloads this reads
// only the JSON header — listings never touch the value blocks.
func decodeTrialHeaderPayload(payload []byte) (trialHeader, bool) {
	if IsColumnar(payload) {
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
	var h trialHeader
	if err := json.Unmarshal(payload, &h); err != nil {
		return trialHeader{}, false
	}
	return h, true
}
