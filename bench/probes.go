package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"perfknow/internal/analysis"
	"perfknow/internal/apps/genidlest"
	"perfknow/internal/diagnosis"
	"perfknow/internal/dmfserver"
	"perfknow/internal/obs"
	"perfknow/internal/perfdmf"
	"perfknow/internal/rules"
	"perfknow/internal/script"
	"perfknow/internal/sim"
	"perfknow/internal/vfs"
)

// The direct probes call each layer's public functions on the benchmark's
// own inputs, outside any request, so a layer's cost is known even where no
// seam separates it from its caller (perfdmf inside the upload handler, the
// engines inside diagnose). They do not depend on the workload: every
// traced run reports all of them.

// timeN returns the p50 duration of n calls of fn in milliseconds.
func timeN(n int, fn func(i int) error) (float64, error) {
	ms := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(t0))/float64(time.Millisecond))
	}
	return percentile(ms, 50), nil
}

// engineProbe is the direct-probe time of what a handler calls for one op
// kind and shape; dmfserver.self_ms subtracts it from the handler's time.
type engineProbe struct {
	saveSelf map[string]float64 // shape name → Repository.Save minus its vfs time
	getWarm  map[string]float64
	listSelf float64
	diagnose float64
	analyze  float64
	append   float64
}

func (e *engineProbe) ms(kind opKind, sh shape) float64 {
	switch kind {
	case opSave:
		return e.saveSelf[sh.name]
	case opGet:
		return e.getWarm[sh.name]
	case opList:
		return e.listSelf
	case opDiagnose:
		return e.diagnose
	case opAnalyze:
		return e.analyze
	case opAppend:
		return e.append
	}
	return 0
}

// runProbes measures every direct probe. n scales the iteration counts
// (the smoke test runs with a small n).
func runProbes(m *metricSet, seed int64, dir string, n int) (*engineProbe, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x9a0be))
	eng := &engineProbe{saveSelf: map[string]float64{}, getWarm: map[string]float64{}}
	nL := n/8 + 2
	small := newKeyspace(shapeS, n, 4, 2, rng)
	large := newKeyspace(shapeL, nL, 2, 2, rng)

	// dmfwire: the trial as it crosses every hop.
	for _, c := range []struct {
		ks    *keyspace
		iters int
	}{{small, n}, {large, nL}} {
		t := c.ks.trial(0, 0)
		var data []byte
		enc, err := timeN(c.iters, func(int) (err error) { data, err = json.Marshal(t); return })
		if err != nil {
			return nil, err
		}
		dec, err := timeN(c.iters, func(int) error { return json.Unmarshal(data, &perfdmf.Trial{}) })
		if err != nil {
			return nil, err
		}
		m.set("dmfwire.json_encode_"+c.ks.shape.name+"_ms", enc)
		m.set("dmfwire.json_decode_"+c.ks.shape.name+"_ms", dec)
		if c.ks == large {
			m.set("dmfwire.json_bytes_L", float64(len(data)))
		}
	}

	// perfdmf over a counting vfs.OS, flush policy as shipped.
	fsys := &countingFS{FS: vfs.OS{}}
	repoDir := filepath.Join(dir, "probe-repo")
	repo, err := perfdmf.OpenRepositoryFS(repoDir, fsys)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	var userBytes int64
	for k := 0; k < n; k++ {
		data, _ := json.Marshal(small.trial(k, 0))
		userBytes += int64(len(data))
	}
	for _, c := range []struct {
		ks    *keyspace
		iters int
	}{{small, n}, {large, nL}} {
		ops0, syncs0, busy0, out0 := fsys.ops.Load(), fsys.fsyncs.Load(), fsys.busyNanos.Load(), fsys.bytesOut.Load()
		save, err := timeN(c.iters, func(i int) error { return repo.SaveContext(ctx, c.ks.trial(i, i%2)) })
		if err != nil {
			return nil, err
		}
		busy := float64(fsys.busyNanos.Load()-busy0) / float64(time.Millisecond) / float64(c.iters)
		m.set("perfdmf.save_"+c.ks.shape.name+"_ms", save)
		eng.saveSelf[c.ks.shape.name] = max(0, save-busy)
		if c.ks == small {
			m.set("perfdmf.save_self_ms", max(0, save-busy))
			m.set("vfs.ops_per_save", float64(fsys.ops.Load()-ops0)/float64(c.iters))
			m.set("vfs.fsyncs_per_save", float64(fsys.fsyncs.Load()-syncs0)/float64(c.iters))
			m.set("vfs.busy_ms_per_save", busy)
			m.set("vfs.bytes_written_per_user_byte", float64(fsys.bytesOut.Load()-out0)/float64(userBytes))
		}
		warm, err := timeN(c.iters, func(i int) error {
			_, err := repo.GetTrialContext(ctx, benchApp, c.ks.experiment(i), c.ks.trialName(i))
			return err
		})
		if err != nil {
			return nil, err
		}
		eng.getWarm[c.ks.shape.name] = warm
	}
	m.set("perfdmf.get_warm_L_ms", eng.getWarm["L"])
	ops0, busy0 := fsys.ops.Load(), fsys.busyNanos.Load()
	list, err := timeN(n, func(i int) error {
		if names := repo.Trials(benchApp, small.experiment(i)); len(names) == 0 {
			return fmt.Errorf("probe: empty listing")
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m.set("perfdmf.list_ms", list)
	m.set("vfs.ops_per_list", float64(fsys.ops.Load()-ops0)/float64(n))
	eng.listSelf = max(0, list-float64(fsys.busyNanos.Load()-busy0)/float64(time.Millisecond)/float64(n))

	coldFS := &countingFS{FS: vfs.OS{}}
	cold, err := perfdmf.OpenRepositoryFS(repoDir, coldFS)
	if err != nil {
		return nil, err
	}
	reads0 := coldFS.reads.Load()
	getCold, err := timeN(nL, func(i int) error {
		_, err := cold.GetTrialContext(ctx, benchApp, large.experiment(i), large.trialName(i))
		return err
	})
	if err != nil {
		return nil, err
	}
	m.set("perfdmf.get_cold_L_ms", getCold)
	m.set("vfs.reads_per_get_cold", float64(coldFS.reads.Load()-reads0)/float64(nL))

	bigL := large.trial(0, 0)
	clone, _ := timeN(nL, func(int) error { bigL.Clone(); return nil })
	m.set("perfdmf.clone_L_ms", clone)
	var payload []byte
	colEnc, err := timeN(nL, func(int) (err error) { payload, err = perfdmf.MarshalColumnar(bigL); return })
	if err != nil {
		return nil, err
	}
	colDec, err := timeN(nL, func(int) error { _, err := perfdmf.UnmarshalColumnar(payload); return err })
	if err != nil {
		return nil, err
	}
	m.set("perfdmf.columnar_encode_L_ms", colEnc)
	m.set("perfdmf.columnar_decode_L_ms", colDec)

	// The streaming path: window, standing rules, standing diagnosis.
	cycle := streamCycle(rng)
	window := perfdmf.NewColumnWindow(streamThreads, streamWindow)
	diag, err := dmfserver.NewStandingDiagnosis(streamThreads, streamWindow, diagnosis.RuleFiles()[streamRules])
	if err != nil {
		return nil, err
	}
	samplesOf := func(i int) []perfdmf.WindowSample {
		var out []perfdmf.WindowSample
		for _, ev := range cycle[i%len(cycle)] {
			out = append(out, perfdmf.WindowSample{Event: ev.Name, Values: ev.Exclusive[perfdmf.TimeMetric]})
		}
		return out
	}
	winMs, _ := timeN(n, func(i int) error { window.Append(samplesOf(i)[1:]); return nil })
	m.set("perfdmf.window_append_us", winMs*1000)
	stMs, err := timeN(n, func(i int) error { _, err := diag.Append(ctx, samplesOf(i)); return err })
	if err != nil {
		return nil, err
	}
	m.set("dmfserver.standing_append_us", stMs*1000)
	eng.append = stMs
	// rules.Standing alone: one fact replaced per step, as an append does
	// for each touched event.
	standing := rules.NewStanding(rules.NewEngine())
	if err := standing.Engine().LoadString(diagnosis.RuleFiles()[streamRules]); err != nil {
		return nil, err
	}
	standing.Engine().Assert(rules.NewFact("Nesting", map[string]any{"outer": "outer_loop", "inner": "inner_loop"}))
	standing.Engine().Assert(rules.NewFact("Correlation", map[string]any{"innerEvent": "inner_loop", "outerEvent": "outer_loop", "value": -0.99}))
	var fact *rules.Fact
	stepMs, err := timeN(n, func(i int) error {
		if fact != nil {
			standing.Engine().Retract(fact)
		}
		fact = standing.Engine().Assert(rules.NewFact("Imbalance", map[string]any{
			"eventName": "inner_loop", "ratio": 0.3 + float64(i%7)/100, "severity": 0.2, "mean": 1.0, "stddev": 0.3}))
		_, err := standing.Step(ctx)
		return err
	})
	if err != nil {
		return nil, err
	}
	m.set("rules.standing_step_us", stepMs*1000)

	// The knowledge engines on simulated (shape M) trials.
	simMs, err := timeN(max(3, n/10), func(int) error {
		if _, err := simulateGenidlest(genidlest.Rib90(), genidlest.OpenMP, false); err != nil {
			return err
		}
		_, err := simulateMSA(seed, sim.Schedule{Kind: sim.StaticSched})
		return err
	})
	if err != nil {
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gen, err := simulateGenidlest(genidlest.Rib90(), genidlest.OpenMP, false)
	if err != nil {
		return nil, err
	}
	align, err := simulateMSA(seed, sim.Schedule{Kind: sim.StaticSched})
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	assets := filepath.Join(dir, "probe-assets")
	if err := diagnosis.WriteAssets(assets); err != nil {
		return nil, err
	}
	rulesDir := filepath.Join(assets, "rules")
	anaMs, err := timeN(max(3, n/10), func(int) error { return analyseStudy(gen, align, rulesDir) })
	if err != nil {
		return nil, err
	}
	m.set("sim.simulate_ms", simMs)
	m.set("sim.allocs_per_iter", float64(ms1.Mallocs-ms0.Mallocs))
	m.set("core.analyse_ms", anaMs)
	m.set("sim.share_pct", simMs/(simMs+anaMs)*100)

	mem := perfdmf.NewRepository()
	for _, t := range []*perfdmf.Trial{gen, align} {
		if err := mem.Save(t); err != nil {
			return nil, err
		}
	}
	cases := []diagCase{
		{"stalls_per_cycle", []string{gen.App, gen.Experiment, gen.Name}},
		{"inefficiency", []string{gen.App, gen.Experiment, gen.Name}},
		{"memory_analysis", []string{gen.App, gen.Experiment, gen.Name}},
		{"load_balance", []string{align.App, align.Experiment, align.Name}},
	}
	iters := max(len(cases), n/4)
	firings := 0
	diagMs, err := timeN(iters, func(i int) error {
		resp, err := diagnoseInProcess(mem, rulesDir, cases[i%len(cases)])
		if err == nil {
			firings += len(resp.Output)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	m.set("core.diagnose_ms", diagMs)
	m.set("rules.firings_per_diagnose", float64(firings)/float64(iters))
	eng.diagnose = diagMs

	// script: wrapping an asset script in a branch that is never taken
	// makes a fresh interpreter parse and compile all of it and run none,
	// which is the cost every diagnose request pays before its first
	// statement. The probe script then runs from the warm program cache.
	var assetNames []string
	for name := range diagnosis.ScriptFiles() {
		assetNames = append(assetNames, name)
	}
	sort.Strings(assetNames)
	compileMs, err := timeN(max(len(assetNames), iters), func(i int) error {
		src := "if 1 > 2 {\n" + diagnosis.ScriptFiles()[assetNames[i%len(assetNames)]] + "\n}\n"
		return script.New().Run(src)
	})
	if err != nil {
		return nil, err
	}
	m.set("script.compile_ms", compileMs)
	const probeScript = "total = 0\nfor i in [1, 2, 3, 4, 5, 6, 7, 8] {\n    total = total + i * 2\n}\n"
	interp := script.New()
	if err := interp.Run(probeScript); err != nil {
		return nil, err
	}
	runMs, err := timeN(n, func(int) error { return interp.Run(probeScript) })
	if err != nil {
		return nil, err
	}
	m.set("script.run_ms", runMs)

	// rules: assert the load-balance facts of a trial and run to quiescence
	// on a fresh engine.
	lbs := analysis.LoadBalanceAnalysis(align, perfdmf.TimeMetric)
	fireMs, err := timeN(iters, func(int) error {
		e := rules.NewEngine()
		if err := e.LoadString(diagnosis.RuleFiles()[streamRules]); err != nil {
			return err
		}
		for _, lb := range lbs {
			e.Assert(rules.NewFact("Imbalance", map[string]any{"eventName": lb.Event, "ratio": lb.Ratio,
				"severity": lb.FractionOfTotal, "mean": lb.Mean, "stddev": lb.StdDev}))
			e.Assert(rules.NewFact("Nesting", map[string]any{"outer": "main", "inner": lb.Event}))
			e.Assert(rules.NewFact("Correlation", map[string]any{"innerEvent": lb.Event, "outerEvent": "main", "value": -0.95}))
		}
		_, err := e.Run()
		return err
	})
	if err != nil {
		return nil, err
	}
	m.set("rules.fire_ms", fireMs)

	factsMs, err := timeN(iters, func(int) error {
		e := rules.NewEngine()
		if _, err := diagnosis.AssertInefficiencyFacts(e, gen); err != nil {
			return err
		}
		if _, err := diagnosis.AssertStallSourceFacts(e, gen); err != nil {
			return err
		}
		_, err := diagnosis.AssertLocalityFacts(e, gen)
		return err
	})
	if err != nil {
		return nil, err
	}
	m.set("diagnosis.facts_ms", factsMs)

	bubble, _ := analysis.ParseOp("/")
	opMs, err := timeN(iters*5, func(i int) error {
		switch i % 5 {
		case 0:
			analysis.ExclusiveStats(gen, perfdmf.TimeMetric)
		case 1:
			analysis.TopN(gen, perfdmf.TimeMetric, 5)
		case 2:
			analysis.LoadBalanceAnalysis(gen, perfdmf.TimeMetric)
		case 3:
			_, err := analysis.KMeans(gen, perfdmf.TimeMetric, 2, 100)
			return err
		case 4:
			_, _, err := analysis.DeriveMetric(gen, "BACK_END_BUBBLE_ALL", "CPU_CYCLES", bubble)
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m.set("analysis.op_ms", opMs)
	eng.analyze = opMs

	// obs: one span started and ended under a live tracer.
	octx := obs.ContextWithTracer(ctx, obs.NewTracer())
	octx, rootSpan := obs.StartSpan(octx, "probe.root")
	const spans = 2000
	t0 := time.Now()
	for i := 0; i < spans; i++ {
		_, sp := obs.StartSpan(octx, "probe.span")
		sp.End()
	}
	m.set("obs.span_ns", float64(time.Since(t0).Nanoseconds())/spans)
	rootSpan.End()
	return eng, os.RemoveAll(repoDir)
}
