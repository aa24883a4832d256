package bench

import (
	"math"
	"sort"

	"perfknow/internal/obs"
)

// percentile is the nearest-rank percentile of xs (0 for an empty slice).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median averages the two middle values of an even-sized sample, which is
// what "median of the 4 round values" means.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// spreadPct is (max − min) / median × 100.
func spreadPct(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return (hi - lo) / m * 100
}

// --- span arithmetic ----------------------------------------------------

type interval struct{ start, end float64 } // microseconds since the epoch

func spanInterval(sd obs.SpanData) interval {
	start := float64(sd.StartUnixNano) / 1e3
	return interval{start, start + sd.DurationMicros}
}

// layerOf maps a harness span to the layer its self time is charged to. A
// root op span is the caller's call into dmfclient, or into the
// ShardedStore when the trace has cluster.backend spans.
func layerOf(sd obs.SpanData, clustered bool) string {
	switch {
	case sd.ParentID == "" && clustered:
		return "cluster"
	case sd.ParentID == "" && sd.Name == "op.study":
		return "loadgen"
	case sd.ParentID == "", sd.Name == "cluster.backend":
		return "dmfclient"
	case sd.Name == "dmfclient.transport":
		return "net"
	case sd.Name == "dmfserver.handler":
		return "dmfserver"
	case sd.Name == "sim.simulate":
		return "sim"
	case sd.Name == "core.analyse":
		return "core"
	}
	return "vfs"
}

// traceTree indexes one trace for self-time queries.
type traceTree struct {
	root      obs.SpanData
	children  map[string][]obs.SpanData
	clustered bool
}

func newTraceTree(tr obs.Trace) *traceTree {
	t := &traceTree{children: make(map[string][]obs.SpanData)}
	for _, sd := range tr.Spans {
		if sd.ParentID == "" {
			t.root = sd
		} else {
			t.children[sd.ParentID] = append(t.children[sd.ParentID], sd)
		}
		if sd.Name == "cluster.backend" {
			t.clustered = true
		}
	}
	for _, cs := range t.children {
		sort.Slice(cs, func(i, j int) bool { return cs[i].StartUnixNano < cs[j].StartUnixNano })
	}
	return t
}

// selfMicros is the span's duration minus the part of it its children cover.
func (t *traceTree) selfMicros(sd obs.SpanData) float64 {
	iv := spanInterval(sd)
	covered, edge := 0.0, iv.start
	for _, c := range t.children[sd.SpanID] { // sorted by start
		ci := spanInterval(c)
		s, e := math.Max(ci.start, edge), math.Min(ci.end, iv.end)
		if e > s {
			covered += e - s
			edge = e
		}
	}
	return math.Max(0, sd.DurationMicros-covered)
}

// blockingPath adds, layer by layer, the self time along the steps that
// blocked the op: where children ran in parallel (replica writes, fan-out
// reads) only the one that finished last inside its parent counts, because
// that is the one the parent waited for.
func (t *traceTree) blockingPath(sd obs.SpanData, into map[string]float64) {
	into[layerOf(sd, t.clustered)] += t.selfMicros(sd)
	parent := spanInterval(sd)
	kids := t.children[sd.SpanID]
	for i := 0; i < len(kids); {
		// One group of mutually overlapping children.
		groupEnd := spanInterval(kids[i]).end
		j := i + 1
		for j < len(kids) && spanInterval(kids[j]).start < groupEnd {
			groupEnd = math.Max(groupEnd, spanInterval(kids[j]).end)
			j++
		}
		pick, pickEnd := kids[i], -1.0
		for _, k := range kids[i:j] {
			if e := spanInterval(k).end; e <= parent.end+1 && e > pickEnd {
				pick, pickEnd = k, e
			}
		}
		t.blockingPath(pick, into)
		i = j
	}
}
