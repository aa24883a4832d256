package perfdmf

// ColumnWindow is an append-safe columnar buffer for streaming ingestion:
// it tracks one metric's per-thread exclusive values over a sliding window
// of the last N appended chunks, laid out as a flat block with the same
// stride convention as Columns (block[event*Threads+thread]).
//
// Both Append and eviction cost O(cells touched by the chunk), not
// O(window): each chunk's sparse contribution is remembered in a ring, and
// when the window slides the oldest contribution is subtracted cell by
// cell. The per-event rows therefore always hold the windowed sums without
// ever rescanning the window.
//
// Because eviction subtracts floats that were earlier added, windowed sums
// can drift from an exact recomputation by normal floating-point
// cancellation error. That is acceptable for standing diagnosis (thresholds
// are coarse); the sealed trial is built from the full accumulation, never
// from a window, so stored data is exact.
type ColumnWindow struct {
	threads  int
	capacity int // window size in chunks; 0 = cumulative (never evicts)

	names []string
	index map[string]int

	// block holds the windowed per-thread sums, stride threads.
	block []float64
	total float64 // sum over block (windowed grand total)

	// ring holds the last ≤capacity chunk contributions for eviction.
	ring []windowChunk
	head int // index in ring of the oldest chunk when full
}

// WindowSample is one event's contribution within one appended chunk:
// per-thread deltas for the tracked metric. Values must have exactly
// Threads entries.
type WindowSample struct {
	Event  string
	Values []float64
}

// windowContrib remembers one event's delta within a chunk so it can be
// subtracted when the chunk falls out of the window.
type windowContrib struct {
	event  int
	values []float64
}

type windowChunk struct {
	contribs []windowContrib
}

// NewColumnWindow creates a window over threads-wide rows that retains the
// trailing capacityChunks chunks (0 = cumulative).
func NewColumnWindow(threads, capacityChunks int) *ColumnWindow {
	if threads < 1 {
		threads = 1
	}
	if capacityChunks < 0 {
		capacityChunks = 0
	}
	return &ColumnWindow{
		threads:  threads,
		capacity: capacityChunks,
		index:    make(map[string]int),
	}
}

// Threads returns the per-event row width.
func (w *ColumnWindow) Threads() int { return w.threads }

// Events returns the number of distinct events ever appended. Events are
// never removed — an evicted event's row simply decays back toward zero.
func (w *ColumnWindow) Events() int { return len(w.names) }

// EventName returns the name of event row i.
func (w *ColumnWindow) EventName(i int) string { return w.names[i] }

// EventIndex returns the row index for an event name.
func (w *ColumnWindow) EventIndex(name string) (int, bool) {
	i, ok := w.index[name]
	return i, ok
}

// Values returns the live windowed row for event i. The returned slice
// aliases the window's block: it is valid until the next Append and must
// not be mutated.
func (w *ColumnWindow) Values(event int) []float64 {
	return w.block[event*w.threads : (event+1)*w.threads]
}

// Total returns the windowed sum over all events and threads.
func (w *ColumnWindow) Total() float64 { return w.total }

func (w *ColumnWindow) ensureEvent(name string) int {
	if i, ok := w.index[name]; ok {
		return i
	}
	i := len(w.names)
	w.names = append(w.names, name)
	w.index[name] = i
	w.block = append(w.block, make([]float64, w.threads)...)
	return i
}

// Append adds one chunk's samples to the window, evicting the oldest chunk
// if the window is full. It returns the sorted, de-duplicated row indices
// whose windowed values changed (touched by the append or by the
// eviction) — the delta a standing diagnosis must re-derive facts for.
func (w *ColumnWindow) Append(samples []WindowSample) []int {
	touched := make(map[int]struct{}, len(samples)+1)

	// Slide: subtract the oldest chunk's contribution first so a chunk
	// replacing it sees the freed capacity.
	if w.capacity > 0 && len(w.ring) == w.capacity {
		old := w.ring[w.head]
		for _, c := range old.contribs {
			row := w.Values(c.event)
			for t, v := range c.values {
				row[t] -= v
				w.total -= v
			}
			touched[c.event] = struct{}{}
		}
	}

	chunk := windowChunk{}
	for _, s := range samples {
		if len(s.Values) != w.threads {
			continue // shape enforced upstream; ignore rather than corrupt
		}
		ev := w.ensureEvent(s.Event)
		row := w.Values(ev)
		vals := make([]float64, w.threads)
		copy(vals, s.Values)
		for t, v := range vals {
			row[t] += v
			w.total += v
		}
		chunk.contribs = append(chunk.contribs, windowContrib{event: ev, values: vals})
		touched[ev] = struct{}{}
	}

	if w.capacity > 0 {
		if len(w.ring) == w.capacity {
			w.ring[w.head] = chunk
			w.head = (w.head + 1) % w.capacity
		} else {
			w.ring = append(w.ring, chunk)
		}
	}

	out := make([]int, 0, len(touched))
	for i := range touched {
		out = append(out, i)
	}
	sortInts(out)
	return out
}

func sortInts(s []int) {
	// Insertion sort: touched sets are chunk-delta sized, typically tiny.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
