// Benchmarks that regenerate every table and figure of the paper's
// evaluation section (one benchmark per artifact, built on
// internal/experiments), the ablations from DESIGN.md, and component
// micro-benchmarks for the substrate layers. Run with:
//
//	go test -bench=. -benchmem
package perfknow_test

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"perfknow"
	"perfknow/internal/apps/genidlest"
	"perfknow/internal/apps/msa"
	"perfknow/internal/diagnosis"
	"perfknow/internal/dmfserver"
	"perfknow/internal/experiments"
	"perfknow/internal/perfdmf"
	"perfknow/internal/sim"
)

// regen runs one experiment per benchmark iteration and fails the benchmark
// if any shape check regresses.
func regen(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range res.Checks {
			if !c.OK() {
				b.Fatalf("%s: check %q out of band: measured %g not in [%g, %g] (paper %g)",
					id, c.Name, c.Measured, c.Lo, c.Hi, c.Paper)
			}
		}
	}
}

// --- one benchmark per paper artifact ---------------------------------

func BenchmarkFig1SampleScript(b *testing.B)     { regen(b, "F1") }
func BenchmarkFig2SampleRule(b *testing.B)       { regen(b, "F2") }
func BenchmarkFig3Pipeline(b *testing.B)         { regen(b, "F3") }
func BenchmarkFig4aMSAImbalance(b *testing.B)    { regen(b, "F4a") }
func BenchmarkFig4bMSAEfficiency(b *testing.B)   { regen(b, "F4b") }
func BenchmarkFig5aPerEventSpeedup(b *testing.B) { regen(b, "F5a") }
func BenchmarkFig5bScaling(b *testing.B)         { regen(b, "F5b") }
func BenchmarkTable1PowerSweep(b *testing.B)     { regen(b, "T1") }
func BenchmarkInefficiencyMetric(b *testing.B)   { regen(b, "M1") }
func BenchmarkStallDecomposition(b *testing.B)   { regen(b, "M2") }
func BenchmarkMemoryAnalysis(b *testing.B)       { regen(b, "M3") }

// --- ablation benchmarks ------------------------------------------------

func BenchmarkAblationGenIDLESTFixes(b *testing.B)      { regen(b, "A1") }
func BenchmarkAblationSelectiveInstrument(b *testing.B) { regen(b, "A2") }
func BenchmarkFeedbackDirectedLoop(b *testing.B)        { regen(b, "A3") }
func BenchmarkHybridMPIOpenMP(b *testing.B)             { regen(b, "A4") }

// BenchmarkParallelSpeedup runs the full evaluation suite sequentially
// (-j 1) and at -j 0 (GOMAXPROCS workers), reports the wall-clock speedup
// as a custom metric, and requires byte-identical results from both runs.
// On machines with at least 4 cores the concurrent run must be at least
// twice as fast; on smaller machines the ratio is reported but not
// enforced (a 1-core box legitimately measures ~1x).
func BenchmarkParallelSpeedup(b *testing.B) {
	measure := func(jobs int) (time.Duration, []*experiments.Result) {
		start := time.Now()
		res, err := experiments.RunAll("", jobs)
		if err != nil {
			b.Fatal(err)
		}
		return time.Since(start), res
	}
	var speedup float64
	for i := 0; i < b.N; i++ {
		seqTime, seqRes := measure(1)
		parTime, parRes := measure(0)
		if !reflect.DeepEqual(seqRes, parRes) {
			b.Fatal("concurrent RunAll results differ from sequential")
		}
		speedup = float64(seqTime) / float64(parTime)
	}
	b.ReportMetric(speedup, "x-speedup")
	if cores := runtime.GOMAXPROCS(0); cores >= 4 && speedup < 2 {
		b.Fatalf("RunAll speedup %.2fx on %d cores, want >= 2x", speedup, cores)
	}
}

// BenchmarkColumnarConvert measures the Trial → Columns → binary → Trial
// round trip on a 256-event × 64-thread, 2-metric profile — the conversion
// cost the repository pays when persisting or loading a columnar file.
func BenchmarkColumnarConvert(b *testing.B) {
	tr := perfknow.NewTrial("app", "exp", "t", 64)
	tr.AddMetric(perfknow.TimeMetric)
	tr.AddMetric("PAPI_FP_OPS")
	for j := 0; j < 256; j++ {
		e := tr.EnsureEvent(fmt.Sprintf("ev%d", j))
		for th := 0; th < 64; th++ {
			e.Calls[th] = float64(j + th)
			e.SetValue(perfknow.TimeMetric, th, float64(j*th+1), float64(j*th))
			e.SetValue("PAPI_FP_OPS", th, float64(j+th*3), float64(j+th))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload, err := perfdmf.MarshalColumnar(tr)
		if err != nil {
			b.Fatal(err)
		}
		back, err := perfdmf.UnmarshalColumnar(payload)
		if err != nil {
			b.Fatal(err)
		}
		if back.Threads != 64 || len(back.Events) != 256 {
			b.Fatal("bad round trip")
		}
	}
}

// BenchmarkRepositorySaveGet is the repository layer alone, on the two
// shapes the service benchmark generates (S: 32 events × 8 threads × 1 metric,
// L: 128 × 64 × 2; integer-valued measurements in [1e14, 1e15)) and on one
// trial the simulator produces (M: GenIDLEST 90rib, OpenMP, 16 threads — leaf
// events and SPMD threads, the rows the synthetic shapes never contain): an
// overwriting Save on the real file system with real fsync and in memory, a
// GetTrial served from the cache, and one served by a repository that has
// not read the file yet. Every sub-benchmark also reports the size of the
// stored file.
func BenchmarkRepositorySaveGet(b *testing.B) {
	synthetic := func(name string, events, threads int, metrics ...string) *perfknow.Trial {
		rng := rand.New(rand.NewSource(17))
		tr := perfknow.NewTrial("app", "exp", name, threads)
		tr.Metadata["shape"] = name
		for _, m := range metrics {
			tr.AddMetric(m)
		}
		for j := 0; j < events; j++ {
			e := tr.EnsureEvent(fmt.Sprintf("main => phase_%02d => loop_%03d", j%8, j))
			for th := 0; th < threads; th++ {
				e.Calls[th] = float64(1 + rng.Intn(9))
				for _, m := range metrics {
					x := 1e14 + float64(rng.Int63n(1e14))
					e.SetValue(m, th, x+float64(rng.Int63n(9e13)), x)
				}
			}
		}
		return tr
	}
	simulated, err := genidlest.Run(perfknow.AltixConfig(16, 2), genidlest.DefaultConfig(genidlest.Rib90(), genidlest.OpenMP, 16))
	if err != nil {
		b.Fatal(err)
	}
	for _, sh := range []struct {
		name string
		tr   *perfknow.Trial
	}{
		{"S", synthetic("S", 32, 8, perfknow.TimeMetric)},
		{"L", synthetic("L", 128, 64, perfknow.TimeMetric, "CPU_CYCLES")},
		{"M", simulated},
	} {
		tr := sh.tr
		enc, err := perfdmf.EncodeTrial(tr)
		if err != nil {
			b.Fatal(err)
		}
		storedBytes := float64(len(enc))
		save := func(b *testing.B, repo *perfdmf.Repository) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := repo.Save(tr); err != nil {
					b.Fatal(err)
				}
			}
		}
		get := func(b *testing.B, repo *perfdmf.Repository) {
			got, err := repo.GetTrial(tr.App, tr.Experiment, tr.Name)
			if err != nil || len(got.Events) != len(tr.Events) {
				b.Fatalf("GetTrial: %v", err)
			}
		}
		stored := func(b *testing.B) (dir string, repo *perfdmf.Repository) {
			dir = b.TempDir()
			repo, err := perfdmf.OpenRepository(dir)
			if err == nil {
				err = repo.Save(tr)
			}
			if err != nil {
				b.Fatal(err)
			}
			return dir, repo
		}
		run := func(name string, f func(b *testing.B)) {
			b.Run(sh.name+"/"+name, func(b *testing.B) {
				f(b)
				b.ReportMetric(storedBytes, "stored-B/op")
			})
		}
		run("save_disk", func(b *testing.B) {
			_, repo := stored(b)
			save(b, repo)
		})
		run("save_mem", func(b *testing.B) { save(b, perfdmf.NewRepository()) })
		run("get_warm", func(b *testing.B) {
			_, repo := stored(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				get(b, repo)
			}
		})
		run("get_cold", func(b *testing.B) {
			dir, _ := stored(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				repo, err := perfdmf.OpenRepository(dir)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				get(b, repo)
			}
		})
		// The codec alone, and the read that ships a stored file on without
		// decoding its values.
		loop := func(b *testing.B, f func() error) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := f(); err != nil {
					b.Fatal(err)
				}
			}
		}
		run("encode", func(b *testing.B) {
			loop(b, func() error { _, err := perfdmf.EncodeTrial(tr); return err })
		})
		run("decode", func(b *testing.B) {
			loop(b, func() error { _, err := perfdmf.DecodeTrial(enc); return err })
		})
		run("decode_columnar", func(b *testing.B) {
			payload, err := perfdmf.MarshalColumnar(tr)
			if err != nil {
				b.Fatal(err)
			}
			loop(b, func() error { _, err := perfdmf.DecodeColumnar(payload); return err })
		})
		run("get_encoded", func(b *testing.B) {
			_, repo := stored(b)
			ctx := context.Background()
			loop(b, func() error { _, err := repo.GetEncoded(ctx, tr.App, tr.Experiment, tr.Name); return err })
		})
	}
}

// --- streaming / standing-diagnosis benchmarks --------------------------

// BenchmarkStandingDiagnosis measures the per-chunk cost of a standing
// load-balance diagnosis: one Append of a fixed 8-event chunk against a
// window already holding many distinct events. The sub-benchmarks differ
// only in how much state the window and rule engine hold (128 vs 2048
// events); the design claim — append cost proportional to the chunk delta,
// not the window — holds when their ns/op stay in the same band.
func BenchmarkStandingDiagnosis(b *testing.B) {
	src := diagnosis.RuleFiles()["LoadBalanceRules.prl"]
	for _, windowEvents := range []int{128, 2048} {
		b.Run(fmt.Sprintf("windowEvents=%d", windowEvents), func(b *testing.B) {
			benchStandingDiagnosis(b, src, windowEvents)
		})
	}
}

func benchStandingDiagnosis(b *testing.B, ruleSrc string, windowEvents int) {
	const threads = 4
	diag, err := dmfserver.NewStandingDiagnosis(threads, 0, ruleSrc)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()

	// Prefill the window with windowEvents distinct flat events in
	// 64-event chunks. The magnitudes are tiny so the steady-state pair
	// below dominates the windowed grand total (keeping its severity above
	// the rule threshold on every chunk) while the window still carries
	// windowEvents rows and the engine windowEvents Imbalance facts.
	tiny := []float64{1e-6, 1e-6, 1e-6, 1e-6}
	batch := make([]perfdmf.WindowSample, 0, 64)
	flush := func() {
		if len(batch) == 0 {
			return
		}
		if _, err := diag.Append(ctx, batch); err != nil {
			b.Fatal(err)
		}
		batch = batch[:0]
	}
	for j := 0; j < windowEvents; j++ {
		batch = append(batch, perfdmf.WindowSample{Event: fmt.Sprintf("bg_event_%d", j), Values: tiny})
		if len(batch) == cap(batch) {
			flush()
		}
	}
	flush()

	// Steady-state chunk: an imbalanced nested loop pair plus six of the
	// background events — 8 events per chunk regardless of window size.
	// inner_loop's ratio (~0.74), severity and -1 correlation with
	// outer_loop keep "Load Imbalance" firing exactly once per chunk.
	chunk := []perfdmf.WindowSample{
		{Event: "outer_loop", Values: []float64{0, 30, 30, 30}},
		{Event: "inner_loop", Values: []float64{40, 10, 10, 10}},
		{Event: "outer_loop" + perfdmf.CallpathSeparator + "inner_loop"},
	}
	for j := 0; j < 6; j++ {
		chunk = append(chunk, perfdmf.WindowSample{Event: fmt.Sprintf("bg_event_%d", j), Values: tiny})
	}

	b.ReportAllocs()
	b.ResetTimer()
	fired := 0
	for i := 0; i < b.N; i++ {
		fs, err := diag.Append(ctx, chunk)
		if err != nil {
			b.Fatal(err)
		}
		fired += len(fs)
	}
	b.StopTimer()
	if fired != b.N {
		b.Fatalf("Load Imbalance fired %d times over %d chunks, want one per chunk", fired, b.N)
	}
}

// --- component micro-benchmarks -----------------------------------------

// BenchmarkSimStudyPair is the simulator and nothing else: the two runs one
// study iteration makes (GenIDLEST 90rib under OpenMP with the first-touch
// defect, MSAP under a static schedule, 16 threads each), no repository,
// script or rule. The paper-figure benchmarks above spend a fifth of their
// time in analysis; a change to internal/sim or internal/machine is gated on
// this one by itself.
func BenchmarkSimStudyPair(b *testing.B) {
	mcfg := perfknow.AltixConfig(16, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := genidlest.Run(mcfg, genidlest.DefaultConfig(genidlest.Rib90(), genidlest.OpenMP, 16)); err != nil {
			b.Fatal(err)
		}
		if _, err := msa.Run(mcfg, msa.DefaultParams(16, sim.Schedule{Kind: sim.StaticSched})); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimOpenMPDynamicFor(b *testing.B) {
	m := perfknow.NewMachine(perfknow.AltixConfig(8, 2))
	for i := 0; i < b.N; i++ {
		eng := perfknow.NewEngine(m, 16)
		// One parallel loop with 1024 dynamically scheduled iterations.
		prog, err := perfknow.ParseSource(`
program bench
proc main() {
    parallel loop l 1024 schedule(dynamic,1) {
        compute fp=500 int=200 loads=100 dep=0.3
    }
}
`)
		if err != nil {
			b.Fatal(err)
		}
		ex, _, err := perfknow.Compile(prog, perfknow.O2, perfknow.InstrumentOptions{}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ex.Run(eng, "bench", "bench", "b"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRuleEngineJoin(b *testing.B) {
	src := `
rule "join"
when
    a : Imbalance ( e : eventName, ratio > 0.25 )
    n : Nesting ( inner == e, o : outer )
    c : Correlation ( innerEvent == e, value < -0.9 )
then
    recommend("scheduling", "fix " + e + " in " + o)
end
`
	for i := 0; i < b.N; i++ {
		eng := perfknow.NewRuleEngine()
		if err := eng.LoadString(src); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 30; j++ {
			name := fmt.Sprintf("loop_%d", j)
			eng.Assert(perfknow.NewFact("Imbalance", map[string]any{"eventName": name, "ratio": 0.3}))
			eng.Assert(perfknow.NewFact("Nesting", map[string]any{"inner": name, "outer": "main"}))
			eng.Assert(perfknow.NewFact("Correlation", map[string]any{"innerEvent": name, "value": -0.95}))
		}
		res, err := eng.Run()
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Fired) != 30 {
			b.Fatalf("fired %d", len(res.Fired))
		}
	}
}

func BenchmarkScriptInterpreter(b *testing.B) {
	s := perfknow.NewSession(nil)
	src := `
total = 0
for i in range(1000) {
    if i % 3 == 0 { total = total + i }
}
`
	for i := 0; i < b.N; i++ {
		if err := s.RunScript(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScriptHostAPI times the host API from a script: a fresh session
// with the knowledge base installed runs the Fig. 1 script over a GenIDLEST
// trial, then makes 1 000 trial-method calls, so what declaring and checking
// a binding costs shows beside what the analysis costs.
func BenchmarkScriptHostAPI(b *testing.B) {
	tr, err := genidlest.Run(perfknow.AltixConfig(16, 2), genidlest.DefaultConfig(genidlest.Rib90(), genidlest.OpenMP, 16))
	if err != nil {
		b.Fatal(err)
	}
	repo := perfknow.NewRepository()
	if err := repo.Save(tr); err != nil {
		b.Fatal(err)
	}
	src := perfknow.ScriptStallsPerCycle + `
for i in range(1000) {
    x = trial.meanExclusive("main", "TIME")
}
`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := perfknow.NewSession(repo)
		s.SetOutput(io.Discard)
		perfknow.InstallKnowledgeBase(s, "")
		perfknow.SetScriptArgs(s, []string{tr.App, tr.Experiment, tr.Name})
		if err := s.RunScript(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSmithWaterman(b *testing.B) {
	seqs := perfknow.GenerateSequences(2, 400, 0, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		score, cells := perfknow.SmithWaterman(seqs[0], seqs[1], perfknow.DefaultMSAScore())
		if score < 0 || cells != 160000 {
			b.Fatal("unexpected result")
		}
	}
}

func BenchmarkKMeansThreadClustering(b *testing.B) {
	tr := perfknow.NewTrial("a", "e", "t", 64)
	tr.AddMetric(perfknow.TimeMetric)
	for j := 0; j < 20; j++ {
		e := tr.EnsureEvent(fmt.Sprintf("ev%d", j))
		for th := 0; th < 64; th++ {
			v := float64((th%4)*100 + j)
			e.SetValue(perfknow.TimeMetric, th, v, v)
		}
	}
	for i := 0; i < b.N; i++ {
		cl, err := perfknow.KMeansThreadClusters(tr, perfknow.TimeMetric, 4, 50)
		if err != nil {
			b.Fatal(err)
		}
		if cl.K != 4 {
			b.Fatal("bad clustering")
		}
	}
}

func BenchmarkTAURoundTrip(b *testing.B) {
	tr := perfknow.NewTrial("app", "exp", "t", 16)
	tr.AddMetric(perfknow.TimeMetric)
	tr.AddMetric("CPU_CYCLES")
	for j := 0; j < 50; j++ {
		e := tr.EnsureEvent(fmt.Sprintf("event_%d", j))
		for th := 0; th < 16; th++ {
			e.SetValue(perfknow.TimeMetric, th, float64(j*th+1), float64(j*th))
			e.SetValue("CPU_CYCLES", th, float64(j*th*1500+1), float64(j*th*1500))
		}
	}
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := perfknow.WriteTAU(dir, tr); err != nil {
			b.Fatal(err)
		}
		got, err := perfknow.ParseTAU(dir, "app", "exp", "t")
		if err != nil {
			b.Fatal(err)
		}
		if got.Threads != 16 {
			b.Fatal("round trip lost threads")
		}
	}
}
