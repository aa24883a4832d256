package bench

import (
	"fmt"
	"math/rand"

	"perfknow/internal/apps/genidlest"
	"perfknow/internal/apps/msa"
	"perfknow/internal/dmfwire"
	"perfknow/internal/machine"
	"perfknow/internal/perfdmf"
	"perfknow/internal/sim"
)

// benchApp is the application every synthetic trial is stored under.
const benchApp = "dmfload"

// shape is one synthetic trial size. Every generated value is an integer
// with a fixed digit count (15 for measurements, 1 for call counts) and
// every name has a fixed width, so two trials of one shape always encode to
// the same number of bytes — as JSON and as %PDMFCOL1 — whatever the seed
// or variant. That is what lets disk_bytes_per_user_byte repeat exactly.
type shape struct {
	name    string
	events  int
	threads int
	metrics []string
}

var (
	// shapeS is 32 events × 8 threads × 1 metric: 256 cells, below
	// perfdmf.DefaultColumnarMinCells, so it is stored as indented JSON.
	shapeS = shape{name: "S", events: 32, threads: 8, metrics: []string{perfdmf.TimeMetric}}
	// shapeL is 128 × 64 × 2: 8192 cells, stored as %PDMFCOL1.
	shapeL = shape{name: "L", events: 128, threads: 64, metrics: []string{perfdmf.TimeMetric, "CPU_CYCLES"}}
)

// eventNames lays the shape's events out as a callpath tree: main, a few
// phases, then pairs of (flat loop, "main => phase => loop" callpath).
// loop_000 under phase_00 is the imbalanced inner loop.
func (sh shape) eventNames() (names []string, phaseOf []int) {
	phases := sh.events / 16
	if phases < 1 {
		phases = 1
	}
	names = append(names, "main")
	phaseOf = append(phaseOf, -1)
	for p := 0; p < phases; p++ {
		names = append(names, fmt.Sprintf("phase_%02d", p))
		phaseOf = append(phaseOf, p)
	}
	for l := 0; len(names) < sh.events; l++ {
		p := l % phases
		names = append(names, fmt.Sprintf("loop_%03d", l))
		phaseOf = append(phaseOf, p)
		if len(names) < sh.events {
			names = append(names, fmt.Sprintf("main => phase_%02d => loop_%03d", p, l))
			phaseOf = append(phaseOf, p)
		}
	}
	return names, phaseOf
}

// body generates the events of one variant. Measurements lie in
// [1e14, 1e15): 15 digits, exactly representable as float64.
func (sh shape) body(rng *rand.Rand) []*perfdmf.Event {
	names, _ := sh.eventNames()
	events := make([]*perfdmf.Event, len(names))
	for i, name := range names {
		e := &perfdmf.Event{
			Name:      name,
			Calls:     make([]float64, sh.threads),
			Inclusive: make(map[string][]float64, len(sh.metrics)),
			Exclusive: make(map[string][]float64, len(sh.metrics)),
		}
		for th := range e.Calls {
			e.Calls[th] = float64(1 + rng.Intn(9))
		}
		for _, m := range sh.metrics {
			inc := make([]float64, sh.threads)
			exc := make([]float64, sh.threads)
			for th := 0; th < sh.threads; th++ {
				x := 1e14 + float64(rng.Int63n(1e14))
				switch name {
				case "loop_000":
					// The imbalanced inner loop: time grows with the thread id.
					x = 1e14 + 8e14*float64(th)/float64(sh.threads) + float64(rng.Int63n(1e12))
				case "phase_00":
					// Its parent waits at the barrier for the slow threads.
					x = 9e14 - 8e14*float64(th)/float64(sh.threads) + float64(rng.Int63n(1e12))
				}
				exc[th] = x
				inc[th] = x + float64(rng.Int63n(9e13))
			}
			e.Inclusive[m], e.Exclusive[m] = inc, exc
		}
		events[i] = e
	}
	return events
}

// keyspace is a bounded set of trial coordinates that set-up preloads, so
// every timed write is an overwrite and repository size does not drift.
type keyspace struct {
	shape       shape
	keys        int
	experiments int
	variants    [][]*perfdmf.Event
}

func newKeyspace(sh shape, keys, experiments, variants int, rng *rand.Rand) *keyspace {
	ks := &keyspace{shape: sh, keys: keys, experiments: experiments}
	for v := 0; v < variants; v++ {
		ks.variants = append(ks.variants, sh.body(rng))
	}
	return ks
}

func (ks *keyspace) experiment(key int) string {
	return fmt.Sprintf("exp-%02d", key%ks.experiments)
}

func (ks *keyspace) trialName(key int) string { return fmt.Sprintf("trial-%04d", key) }

// trial assembles the trial stored at key with the given variant's events.
// The events are shared between keys and must be treated as read-only; the
// variant is recorded in the metadata so the oracle can tell which write a
// stored trial came from.
func (ks *keyspace) trial(key, variant int) *perfdmf.Trial {
	return &perfdmf.Trial{
		App:        benchApp,
		Experiment: ks.experiment(key),
		Name:       ks.trialName(key),
		Threads:    ks.shape.threads,
		Metrics:    ks.shape.metrics,
		Events:     ks.variants[variant],
		Metadata:   map[string]string{"shape": ks.shape.name, "variant": fmt.Sprintf("%02d", variant)},
	}
}

// variantOf reads back which variant a stored trial says it is.
func (ks *keyspace) variantOf(t *perfdmf.Trial) (int, bool) {
	var v int
	_, err := fmt.Sscanf(t.Metadata["variant"], "%d", &v)
	return v, err == nil && v >= 0 && v < len(ks.variants)
}

// Stream chunk generation (diagnose_live). A stream cycle is
// chunksPerStream chunks of chunkEvents events over streamThreads threads;
// chunk i's content depends only on the seed and i, so every sealed stream
// stores the same trial and the alert sequence of a cycle is fixed.
const (
	chunksPerStream = 256
	chunkEvents     = 8
	streamThreads   = 8
	streamWindow    = 8
	streamTrial     = "stream-live"
	streamRules     = "LoadBalanceRules.prl"
)

// streamCycle generates one cycle of chunks. Chunks alternate, eight at a
// time, between an imbalanced phase (inner_loop grows with the thread id,
// outer_loop mirrors it) and a balanced one; inner_loop holds about a sixth
// of the windowed time, so "Load Imbalance" fires while an imbalanced phase
// fills the window and nothing fires once a balanced phase has replaced it.
func streamCycle(rng *rand.Rand) [][]dmfwire.ChunkEvent {
	flat := []string{"main", "outer_loop", "inner_loop", "io_wait", "comm_exchange", "setup_phase", "reduce_phase"}
	cycle := make([][]dmfwire.ChunkEvent, chunksPerStream)
	for i := range cycle {
		imbalanced := (i/8)%2 == 0
		chunk := []dmfwire.ChunkEvent{{Name: "main => outer_loop => inner_loop"}}
		inner := make([]float64, streamThreads)
		for th := range inner {
			inner[th] = 150000 + float64(rng.Intn(6000))
			if imbalanced {
				inner[th] += 30000 * (float64(th) - 3.5)
			}
		}
		for _, name := range flat {
			vals := make([]float64, streamThreads)
			for th := range vals {
				switch name {
				case "inner_loop":
					vals[th] = inner[th]
				case "outer_loop":
					vals[th] = 400000 - inner[th]
				default:
					vals[th] = 100000 + float64(rng.Intn(6000))
				}
			}
			calls := make([]float64, streamThreads)
			for th := range calls {
				calls[th] = 1
			}
			chunk = append(chunk, dmfwire.ChunkEvent{
				Name:      name,
				Calls:     calls,
				Inclusive: map[string][]float64{perfdmf.TimeMetric: vals},
				Exclusive: map[string][]float64{perfdmf.TimeMetric: vals},
			})
		}
		if len(chunk) != chunkEvents {
			panic("bench: stream chunk size drifted from chunkEvents")
		}
		cycle[i] = chunk
	}
	return cycle
}

// altix is the machine every simulated (shape M) trial runs on.
func altix() machine.Config { return machine.Altix(16, 2) }

// simulateMSA runs the MSAP workload; seed picks the sequence set.
func simulateMSA(seed int64, sched sim.Schedule) (*perfdmf.Trial, error) {
	p := msa.DefaultParams(16, sched)
	p.Seed = seed
	return msa.Run(altix(), p)
}

// simulateGenidlest runs one GenIDLEST case with one thread per two
// blocks: 16 threads on the 90-degree rib, 4 on the 45-degree one.
func simulateGenidlest(p genidlest.Problem, mode genidlest.Mode, optimized bool) (*perfdmf.Trial, error) {
	cfg := genidlest.DefaultConfig(p, mode, p.Blocks/2)
	cfg.Optimized = optimized
	return genidlest.Run(altix(), cfg)
}

// simulateM produces the shape-M trials: real simulator output, so the
// asset scripts find the metrics they need and their rules fire.
func simulateM(seed int64) ([]*perfdmf.Trial, error) {
	var out []*perfdmf.Trial
	for _, sched := range []sim.Schedule{{Kind: sim.StaticSched}, {Kind: sim.DynamicSched, Chunk: 1}} {
		t, err := simulateMSA(seed, sched)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	for _, p := range []genidlest.Problem{genidlest.Rib45(), genidlest.Rib90()} {
		for _, mode := range []genidlest.Mode{genidlest.OpenMP, genidlest.MPI} {
			for _, opt := range []bool{false, true} {
				t, err := simulateGenidlest(p, mode, opt)
				if err != nil {
					return nil, err
				}
				out = append(out, t)
			}
		}
	}
	return out, nil
}
