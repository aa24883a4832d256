package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// opKind is what one operation does; class groups kinds for the
// read/write/compute latency metrics.
type opKind uint8

const (
	opSave opKind = iota
	opGet
	opList
	opDiagnose
	opAnalyze
	opAppend // appends one chunk; the last chunk of a cycle also seals and re-opens
	opStudy  // one simulate + analyse iteration of study_pipeline
	numKinds
)

func (k opKind) String() string {
	return [...]string{"save", "get", "list", "diagnose", "analyze", "append", "study"}[k]
}

type class uint8

const (
	classRead class = iota
	classWrite
	classCompute
	numClasses
)

func (k opKind) class() class {
	switch k {
	case opGet, opList:
		return classRead
	case opSave, opAppend:
		return classWrite
	}
	return classCompute
}

// op is one scheduled operation. key indexes the workload's keyspace (or
// is a round-robin counter for diagnose/analyze); variant picks the trial
// body a save writes.
type op struct {
	kind    opKind
	key     int
	variant int
}

// workload is the fixed description of one benchmark workload. Rates and
// limits are constants measured once on the seed commit (see README.md):
// they are never derived from the build under test. BENCHMARK.json has no
// keys of its own for them, so each why ends with them and the smoke test
// holds the two together.
type workload struct {
	name string
	why  string
	// mix is the op mix in percent; it sums to 100.
	mix []mixEntry
	// workers is the number of request workers (= client connections).
	workers int
	// closedOnly skips the open-loop segments (study_pipeline).
	closedOnly bool
	// openRate is the open-loop arrival rate in ops/s: about 30% of the seed
	// commit's closed-loop ops_per_s, fixed once (see README.md).
	openRate float64
	// limitMs is the latency limit for tail.within_limit_pct: about five
	// times the seed commit's p50_ms.
	limitMs float64
	// traceSample is how many ops of each kind the traced run replays.
	traceSample int

	cluster bool
	shape   shape
	keys    int
	exps    int
	// variants is how many distinct trial bodies saves choose from.
	variants int
}

type mixEntry struct {
	kind opKind
	pct  int
}

// Workloads lists the five workloads in run order.
func Workloads() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

var workloads = []*workload{
	{
		name:    "ingest_small",
		why:     "write path of many small profiles: repository persist and fsync dominate, codec and engines idle; open loop 80 ops/s, limit 27 ms",
		mix:     []mixEntry{{opSave, 85}, {opList, 15}},
		workers: 2, openRate: 80, limitMs: 27, traceSample: 200,
		shape: shapeS, keys: 512, exps: 8, variants: 16,
	},
	{
		name:    "read_large",
		why:     "bulk transfer of columnar trials: wire JSON encode/decode dominates, fsync is a small share; open loop 17 ops/s, limit 150 ms",
		mix:     []mixEntry{{opGet, 80}, {opSave, 20}},
		workers: 2, openRate: 17, limitMs: 150, traceSample: 40,
		shape: shapeL, keys: 96, exps: 4, variants: 4,
	},
	{
		name:    "diagnose_live",
		why:     "knowledge-engine path: scripts, Rete rules, analysis ops and standing stream diagnosis on cached trials; open loop 410 ops/s, limit 8.5 ms",
		mix:     []mixEntry{{opDiagnose, 50}, {opAnalyze, 20}, {opAppend, 30}},
		workers: 2, openRate: 410, limitMs: 8.5, traceSample: 100,
	},
	{
		name:    "cluster_rw",
		why:     "the only cluster path: R=2 replicated writes, fan-out reads and union listings over 3 gossiping daemons; open loop 90 ops/s, limit 21 ms",
		mix:     []mixEntry{{opSave, 45}, {opGet, 45}, {opList, 10}},
		workers: 2, openRate: 90, limitMs: 21, traceSample: 150,
		cluster: true, shape: shapeS, keys: 512, exps: 32, variants: 16,
	},
	{
		name:    "study_pipeline",
		why:     "paper-figure path in process: simulator time split from analysis time, no storage, wire or cluster; closed loop only; limit 100 ms",
		mix:     []mixEntry{{opStudy, 100}},
		workers: 1, closedOnly: true, limitMs: 100, traceSample: 20,
	},
}

// closedLen is the length of a round's closed-loop segment: a workload
// without an open loop spends the whole round in it.
func (w *workload) closedLen(seg time.Duration) time.Duration {
	if w.closedOnly {
		return 2 * seg
	}
	return seg
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, Workloads())
}

// schedule is the seeded op stream of one run. The workers draw from it
// under one lock, so the i-th op issued is the same for a given seed
// however the workers interleave.
type schedule struct {
	mu   sync.Mutex
	w    *workload
	rng  *rand.Rand
	n    int
	next [numKinds]int // round-robin counters
}

func newSchedule(w *workload, seed int64) *schedule {
	return &schedule{w: w, rng: rand.New(rand.NewSource(seed))}
}

// draw returns the next op and its index in the stream.
func (s *schedule) draw() (int, op) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.rng.Intn(100)
	var o op
	for _, m := range s.w.mix {
		if r < m.pct {
			o.kind = m.kind
			break
		}
		r -= m.pct
	}
	switch o.kind {
	case opSave:
		o.key = s.rng.Intn(s.w.keys)
		o.variant = s.rng.Intn(s.w.variants)
	case opGet:
		o.key = s.rng.Intn(s.w.keys)
	case opList:
		o.key = s.rng.Intn(s.w.exps)
	default:
		o.key = s.next[o.kind]
		s.next[o.kind]++
	}
	i := s.n
	s.n++
	return i, o
}
