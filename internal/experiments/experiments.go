// Package experiments regenerates every table and figure of the paper's
// evaluation (§III) plus the ablations called out in DESIGN.md. Each
// experiment produces printable rows shaped like the paper's artifact and a
// set of shape checks recording the paper's value, the measured value, and
// whether the measurement falls in the acceptance band. The command
// cmd/experiments prints them; bench_test.go regenerates them under
// testing.B.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"perfknow/internal/apps/genidlest"
	"perfknow/internal/apps/msa"
	"perfknow/internal/core"
	"perfknow/internal/diagnosis"
	"perfknow/internal/machine"
	"perfknow/internal/openuh"
	"perfknow/internal/perfdmf"
	"perfknow/internal/power"
	"perfknow/internal/rules"
	"perfknow/internal/sim"
)

// Check is one paper-vs-measured comparison.
type Check struct {
	Name     string
	Paper    float64 // the paper's value (0 when the paper gives no number)
	Measured float64
	Lo, Hi   float64 // acceptance band for Measured
}

// OK reports whether the measurement is inside the band.
func (c Check) OK() bool { return c.Measured >= c.Lo && c.Measured <= c.Hi }

// Result is one regenerated artifact.
type Result struct {
	ID     string
	Title  string
	Lines  []string
	Checks []Check
}

func (r *Result) addf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

func (r *Result) check(name string, paper, measured, lo, hi float64) {
	r.Checks = append(r.Checks, Check{Name: name, Paper: paper, Measured: measured, Lo: lo, Hi: hi})
}

// Format renders the result for terminal output.
func (r *Result) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s\n", r.ID, r.Title)
	for _, l := range r.Lines {
		fmt.Fprintf(&sb, "   %s\n", l)
	}
	for _, c := range r.Checks {
		status := "PASS"
		if !c.OK() {
			status = "FAIL"
		}
		paper := "-"
		if c.Paper != 0 {
			paper = fmt.Sprintf("%.4g", c.Paper)
		}
		fmt.Fprintf(&sb, "   [%s] %-42s paper=%-8s measured=%.4g (band %.4g..%.4g)\n",
			status, c.Name, paper, c.Measured, c.Lo, c.Hi)
	}
	return sb.String()
}

// registry, in presentation order.
var registry = []struct {
	id, title string
	run       func() (*Result, error)
}{
	{"F1", "Fig. 1 — sample analysis script (stall/cycle outliers)", runF1},
	{"F2", "Fig. 2 — sample inference rule in isolation", runF2},
	{"F3", "Fig. 3 — compiler-to-analysis tool integration pipeline", runF3},
	{"F4a", "Fig. 4(a) — MSA inner/outer loop imbalance, 16 threads", runF4a},
	{"F4b", "Fig. 4(b) — MSA relative efficiency by schedule", runF4b},
	{"F5a", "Fig. 5(a) — GenIDLEST per-event speedup, unoptimized OpenMP", runF5a},
	{"F5b", "Fig. 5(b) — GenIDLEST scaling: OpenMP vs MPI", runF5b},
	{"T1", "Table I — relative metrics across -O0..-O3 (power study)", runT1},
	{"M1", "§III-B metric 1 — inefficiency", runM1},
	{"M2", "§III-B metric 2 — stall decomposition (90% guideline)", runM2},
	{"M3", "§III-B metric 3 — memory analysis and scaling joins", runM3},
	{"A1", "Ablation — init fix vs exchange fix, separately and together", runA1},
	{"A2", "Ablation — selective instrumentation scoring", runA2},
	{"A3", "Extension — feedback-directed recompilation closes the Fig. 3 loop", runA3},
	{"A4", "Extension — hybrid MPI x OpenMP sits between the pure models", runA4},
}

// IDs lists experiment IDs in order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.id
	}
	return out
}

// Run executes one experiment by ID.
func Run(id string) (*Result, error) {
	for _, e := range registry {
		if e.id == id {
			res, err := e.run()
			if err != nil {
				return nil, fmt.Errorf("experiment %s: %w", id, err)
			}
			res.ID, res.Title = e.id, e.title
			return res, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(IDs(), ", "))
}

// RunAll executes every experiment whose ID has the given prefix ("" = all)
// on up to jobs goroutines (<= 0: GOMAXPROCS; 1: in registry order on the
// caller). Experiments are fully independent — each builds its own session
// and machine — so any jobs gives the same results. Workers
// claim experiments in registry order and stop claiming after a failure;
// results come back in registry order. On failure RunAll returns the results
// before the lowest-index failing experiment and that experiment's error:
// the partial output of the sequential loop.
func RunAll(prefix string, jobs int) ([]*Result, error) {
	var ids []string
	for _, e := range registry {
		if prefix != "" && !strings.HasPrefix(e.id, prefix) {
			continue
		}
		ids = append(ids, e.id)
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("experiments: no experiment matches %q", prefix)
	}
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	results := make([]*Result, len(ids))
	errs := make([]error, len(ids))
	var (
		next   atomic.Int64
		failed atomic.Bool
	)
	work := func() {
		for !failed.Load() {
			i := int(next.Add(1) - 1)
			if i >= len(ids) {
				return
			}
			if results[i], errs[i] = Run(ids[i]); errs[i] != nil {
				failed.Store(true)
			}
		}
	}
	if jobs = min(jobs, len(ids)); jobs == 1 {
		work()
	} else {
		var wg sync.WaitGroup
		wg.Add(jobs)
		for range jobs {
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	for i, err := range errs {
		if err != nil {
			return results[:i], err
		}
	}
	return results, nil
}

// --- shared helpers -----------------------------------------------------

func altix() machine.Config { return machine.Altix(16, 2) }

func mainTime(t *perfdmf.Trial) float64 {
	e := t.Event("main")
	if e == nil {
		return 0
	}
	return e.Inclusive[perfdmf.TimeMetric][0] / 1e6
}

func inclTime0(t *perfdmf.Trial, ev string) float64 {
	e := t.Event(ev)
	if e == nil {
		return 0
	}
	return e.Inclusive[perfdmf.TimeMetric][0] / 1e6
}

func genRun(p genidlest.Problem, mode genidlest.Mode, threads int, opt bool) (*perfdmf.Trial, error) {
	cfg := genidlest.DefaultConfig(p, mode, threads)
	cfg.Optimized = opt
	return genidlest.Run(altix(), cfg)
}

// scriptSession builds a session with the built-in knowledge base installed.
func scriptSession() (*core.Session, *strings.Builder) {
	s := core.NewSession(nil)
	var buf strings.Builder
	s.SetOutput(&buf)
	diagnosis.Install(s, "")
	return s, &buf
}

// --- F1: Fig. 1 sample script -------------------------------------------

func runF1() (*Result, error) {
	s, buf := scriptSession()
	trial, err := genRun(genidlest.Rib90(), genidlest.OpenMP, 16, false)
	if err != nil {
		return nil, err
	}
	if err := s.Repo.SaveContext(context.Background(), trial); err != nil {
		return nil, err
	}
	diagnosis.SetArgs(s, []string{trial.App, trial.Experiment, trial.Name})
	if err := s.RunScript(diagnosis.ScriptFiles()["stalls_per_cycle.pes"]); err != nil {
		return nil, err
	}
	res := &Result{}
	res.addf("script: assets/scripts/stalls_per_cycle.pes on %s/%s/%s", trial.App, trial.Experiment, trial.Name)
	for _, l := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		res.addf("%s", l)
	}
	fired := float64(len(s.LastResult().Fired))
	res.check("stall/cycle rule firings", 0, fired, 1, 16)
	return res, nil
}

// --- F2: Fig. 2 rule in isolation ---------------------------------------

func runF2() (*Result, error) {
	eng := rules.NewEngine()
	if err := eng.LoadString(diagnosis.RuleFiles()["OpenUHRules.prl"]); err != nil {
		return nil, err
	}
	mk := func(event string, severity, mainVal, eventVal float64, hl string) *rules.Fact {
		return rules.NewFact("MeanEventFact", map[string]any{
			"metric":      "(BACK_END_BUBBLE_ALL / CPU_CYCLES)",
			"higherLower": hl,
			"severity":    severity,
			"eventName":   event,
			"mainValue":   mainVal,
			"eventValue":  eventVal,
			"factType":    "Compared to Main",
		})
	}
	eng.Assert(mk("bicgstab", 0.31, 0.42, 0.87, "HIGHER"))
	eng.Assert(mk("tiny_helper", 0.02, 0.42, 0.95, "HIGHER")) // below severity
	eng.Assert(mk("pc", 0.20, 0.42, 0.12, "LOWER"))           // wrong direction
	r, err := eng.Run()
	if err != nil {
		return nil, err
	}
	res := &Result{}
	res.addf("rule base: assets/rules/OpenUHRules.prl (%d rules)", len(eng.Rules()))
	res.addf("facts: bicgstab (HIGHER, sev 0.31), tiny_helper (HIGHER, sev 0.02), pc (LOWER)")
	for _, l := range r.Output {
		res.addf("%s", l)
	}
	res.check("firings (only bicgstab qualifies)", 0, float64(len(r.Fired)), 1, 1)
	return res, nil
}

// --- F3: the tool-integration pipeline ----------------------------------

const f3Source = `
program heat
proc main() {
    loop timestep 20 {
        call sweep
        call reduce_residual
    }
}
proc sweep() {
    parallel loop rows 256 schedule(static) {
        compute fp=4000 int=900 loads=1600 stores=800 branches=128 \
                region=grid off=0 len=8388608 reuse=10 dep=0.3 firsttouch
    }
}
proc reduce_residual() {
    compute fp=256 int=512 loads=256 dep=0.6
}
`

func runF3() (*Result, error) {
	res := &Result{}
	prog, err := openuh.ParseSource(f3Source)
	if err != nil {
		return nil, err
	}
	res.addf("stage 1: parsed %q (%d procedures) at WHIRL level %s", prog.Name, len(prog.Procs), prog.Level)
	ex, scores, err := openuh.Compile(prog, openuh.O2, openuh.DefaultInstrumentation(), nil)
	if err != nil {
		return nil, err
	}
	res.addf("stage 2: optimized at %s (%d passes), instrumented %d regions",
		ex.Level, len(ex.CG.Applied), len(scores))
	m := machine.New(altix())
	eng := sim.NewEngine(m, sim.Options{Threads: 8, CallpathDepth: 3})
	trial, err := ex.Run(eng, "heat", "pipeline", "8_O2")
	if err != nil {
		return nil, err
	}
	res.addf("stage 3: executed on 8 simulated threads: main = %.3f ms", mainTime(trial)*1e3)

	s, buf := scriptSession()
	if err := s.Repo.SaveContext(context.Background(), trial); err != nil {
		return nil, err
	}
	res.addf("stage 4: stored trial %s/%s/%s in PerfDMF", trial.App, trial.Experiment, trial.Name)
	diagnosis.SetArgs(s, []string{trial.App, trial.Experiment, trial.Name})
	if err := s.RunScript(diagnosis.ScriptFiles()["stalls_per_cycle.pes"]); err != nil {
		return nil, err
	}
	res.addf("stage 5: PerfExplorer analysis output:")
	for _, l := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		res.addf("  %s", l)
	}
	recs := 0
	if s.LastResult() != nil {
		recs = len(s.LastResult().Recommendations)
	}
	res.addf("stage 6: %d recommendation(s) to the user", recs)
	res.check("pipeline events profiled", 0, float64(len(trial.Events)), 4, 100)
	return res, nil
}

// --- F4a: MSA imbalance ---------------------------------------------------

func msaParams(threads int, sched sim.Schedule) msa.Params {
	p := msa.DefaultParams(threads, sched)
	return p
}

func runF4a() (*Result, error) {
	res := &Result{}
	ratios := map[string]float64{}
	for _, sched := range []sim.Schedule{{Kind: sim.StaticSched}, {Kind: sim.DynamicSched, Chunk: 1}} {
		tr, err := msa.Run(altix(), msaParams(16, sched))
		if err != nil {
			return nil, err
		}
		inner := tr.Event(msa.EventInner).Exclusive[perfdmf.TimeMetric]
		outer := tr.Event(msa.EventOuter).Exclusive[perfdmf.TimeMetric]
		ratio := perfdmf.StdDev(inner) / perfdmf.Mean(inner)
		ratios[sched.String()] = ratio
		corr := perfdmf.Correlation(inner, outer)
		res.addf("schedule %-10s per-thread inner-loop seconds:", sched)
		row := "  "
		for th := 0; th < 16; th++ {
			row += fmt.Sprintf("%6.2f", inner[th]/1e6)
		}
		res.addf("%s", row)
		res.addf("  stddev/mean = %.3f, inner/outer correlation = %.3f", ratio, corr)
	}
	res.check("static-even imbalance ratio (> rule threshold 0.25)", 0, ratios["static"], 0.25, 10)
	res.check("dynamic,1 imbalance ratio (< 0.25)", 0, ratios["dynamic,1"], 0, 0.25)
	return res, nil
}

// --- F4b: MSA efficiency sweep -------------------------------------------

func runF4b() (*Result, error) {
	res := &Result{}
	schedules := []sim.Schedule{
		{Kind: sim.StaticSched},
		{Kind: sim.DynamicSched, Chunk: 1},
		{Kind: sim.DynamicSched, Chunk: 4},
		{Kind: sim.DynamicSched, Chunk: 16},
		{Kind: sim.GuidedSched},
	}
	threadCounts := []int{2, 4, 8, 16}
	res.addf("%-12s %s", "schedule", "efficiency at 2/4/8/16 threads (400 sequences)")
	var dyn1at16, staticAt16 float64
	for _, sched := range schedules {
		eff, err := msa.EfficiencySweep(altix(), msaParams(0, sched), threadCounts)
		if err != nil {
			return nil, err
		}
		row := fmt.Sprintf("%-12s", sched)
		for _, tc := range threadCounts {
			row += fmt.Sprintf(" %5.1f%%", 100*eff[tc])
		}
		res.addf("%s", row)
		if sched.Kind == sim.DynamicSched && sched.Chunk == 1 {
			dyn1at16 = eff[16]
		}
		if sched.Kind == sim.StaticSched {
			staticAt16 = eff[16]
		}
	}
	// 128-thread, 1000-sequence spot check on a bigger Altix.
	big := msa.Params{Sequences: 1000, MeanLen: 450, LenJitter: 220, Seed: 42,
		Threads: 0, Schedule: sim.Schedule{Kind: sim.DynamicSched, Chunk: 1}}
	eff128, err := msa.EfficiencySweep(machine.Altix(64, 2), big, []int{128})
	if err != nil {
		return nil, err
	}
	res.addf("dynamic,1 at 128 threads, 1000 sequences: %.1f%%", 100*eff128[128])

	res.check("dynamic,1 efficiency @16 threads (paper ~93%)", 0.93, dyn1at16, 0.85, 1.0)
	res.check("static-even efficiency @16 threads (below dynamic)", 0, staticAt16, 0, dyn1at16)
	res.check("dynamic,1 efficiency @128 threads, 1000 seqs (paper ~80%)", 0.80, eff128[128], 0.70, 0.92)
	return res, nil
}

// --- F5a: per-event speedup ------------------------------------------------

func runF5a() (*Result, error) {
	res := &Result{}
	u1, err := genRun(genidlest.Rib90(), genidlest.OpenMP, 1, false)
	if err != nil {
		return nil, err
	}
	u16, err := genRun(genidlest.Rib90(), genidlest.OpenMP, 16, false)
	if err != nil {
		return nil, err
	}
	res.addf("unoptimized OpenMP 90rib, speedup from 1 to 16 threads (ideal = 16):")
	events := append(genidlest.SolverEvents(), genidlest.EventExchange)
	worst := 1e9
	for _, ev := range events {
		var s float64
		if ev == genidlest.EventExchange {
			s = inclTime0(u1, ev) / inclTime0(u16, ev)
		} else {
			s = perfdmf.Mean(u1.Event(ev).Exclusive[perfdmf.TimeMetric]) /
				perfdmf.Mean(u16.Event(ev).Exclusive[perfdmf.TimeMetric])
		}
		if s < worst {
			worst = s
		}
		res.addf("  %-18s %5.2fx", ev, s)
	}
	exFrac := inclTime0(u16, genidlest.EventExchange) / mainTime(u16)
	res.addf("exchange_var__ share of unoptimized runtime: %.1f%%", 100*exFrac)
	res.check("solver procedures scale poorly (max observed speedup)", 0, maxSolverSpeedup(u1, u16), 1, 6)
	res.check("exchange_var__ runtime share (paper 31%)", 0.31, exFrac, 0.2, 0.5)
	res.check("worst event speedup near flat", 0, worst, 0, 2.5)
	return res, nil
}

func maxSolverSpeedup(u1, u16 *perfdmf.Trial) float64 {
	max := 0.0
	for _, ev := range genidlest.SolverEvents() {
		s := perfdmf.Mean(u1.Event(ev).Exclusive[perfdmf.TimeMetric]) /
			perfdmf.Mean(u16.Event(ev).Exclusive[perfdmf.TimeMetric])
		if s > max {
			max = s
		}
	}
	return max
}

// --- F5b: total scaling ----------------------------------------------------

func runF5b() (*Result, error) {
	res := &Result{}
	res.addf("90rib total time (seconds, thread 0):")
	res.addf("  %-8s %12s %12s %12s", "threads", "unopt OpenMP", "opt OpenMP", "MPI")
	times := map[string]map[int]float64{"u": {}, "o": {}, "m": {}}
	for _, th := range []int{1, 2, 4, 8, 16, 32} {
		u, err := genRun(genidlest.Rib90(), genidlest.OpenMP, th, false)
		if err != nil {
			return nil, err
		}
		o, err := genRun(genidlest.Rib90(), genidlest.OpenMP, th, true)
		if err != nil {
			return nil, err
		}
		m, err := genRun(genidlest.Rib90(), genidlest.MPI, th, true)
		if err != nil {
			return nil, err
		}
		times["u"][th], times["o"][th], times["m"][th] = mainTime(u), mainTime(o), mainTime(m)
		res.addf("  %-8d %12.3f %12.3f %12.3f", th, mainTime(u), mainTime(o), mainTime(m))
	}
	gapU90 := times["u"][16] / times["m"][16]
	gapO90 := times["o"][16] / times["m"][16]

	u45, err := genRun(genidlest.Rib45(), genidlest.OpenMP, 8, false)
	if err != nil {
		return nil, err
	}
	o45, err := genRun(genidlest.Rib45(), genidlest.OpenMP, 8, true)
	if err != nil {
		return nil, err
	}
	m45, err := genRun(genidlest.Rib45(), genidlest.MPI, 8, true)
	if err != nil {
		return nil, err
	}
	gapU45 := mainTime(u45) / mainTime(m45)
	gapO45 := mainTime(o45) / mainTime(m45)
	res.addf("45rib at 8 processors: unopt OpenMP %.3fs, opt OpenMP %.3fs, MPI %.3fs",
		mainTime(u45), mainTime(o45), mainTime(m45))

	flatness := times["u"][4] / times["u"][16]
	res.check("90rib unopt OpenMP/MPI gap @16 (paper 11.16x)", 11.16, gapU90, 7, 15)
	res.check("90rib optimized OpenMP/MPI ratio (paper ~1.15)", 1.15, gapO90, 1.0, 1.30)
	res.check("45rib unopt OpenMP/MPI gap @8 (paper 3.48x)", 3.48, gapU45, 2.5, 5)
	res.check("45rib optimized OpenMP/MPI ratio (paper ~1.17)", 1.168, gapO45, 1.0, 1.30)
	res.check("unopt OpenMP does not scale (4->16 thread speedup)", 0, flatness, 0, 1.6)
	return res, nil
}

// --- T1: Table I -------------------------------------------------------------

func runT1() (*Result, error) {
	res := &Result{}
	model := power.Itanium2()
	type row struct{ time, ic, ii, ipcC, ipcI, watts, joules, fpj float64 }
	rows := map[openuh.OptLevel]row{}
	levels := []openuh.OptLevel{openuh.O0, openuh.O1, openuh.O2, openuh.O3}
	for _, lvl := range levels {
		cfg := genidlest.DefaultConfig(genidlest.Rib90(), genidlest.MPI, 16)
		cfg.OptLevel = lvl
		tr, err := genidlest.Run(altix(), cfg)
		if err != nil {
			return nil, err
		}
		rep, err := model.Estimate(tr)
		if err != nil {
			return nil, err
		}
		main := tr.Event("main")
		cyc := perfdmf.Sum(main.Inclusive["CPU_CYCLES"])
		ic := perfdmf.Sum(main.Inclusive["INSTRUCTIONS_COMPLETED"])
		ii := perfdmf.Sum(main.Inclusive["INSTRUCTIONS_ISSUED"])
		rows[lvl] = row{rep.Seconds, ic, ii, ic / cyc, ii / cyc, rep.WattsPerProc, rep.Joules, rep.FLOPPerJoule}
	}
	b := rows[openuh.O0]
	rel := func(f func(row) float64) [4]float64 {
		var out [4]float64
		for i, lvl := range levels {
			out[i] = f(rows[lvl]) / f(b)
		}
		return out
	}
	metric := func(name string, f func(row) float64, paper [3]float64) [4]float64 {
		v := rel(f)
		res.addf("%-34s %6.3f %6.3f %6.3f %6.3f   (paper 1.0 %.3f %.3f %.3f)",
			name, v[0], v[1], v[2], v[3], paper[0], paper[1], paper[2])
		return v
	}
	res.addf("GenIDLEST 90rib, 16 MPI processes; all values relative to -O0:")
	res.addf("%-34s %6s %6s %6s %6s", "Metric", "O0", "O1", "O2", "O3")
	tm := metric("Time", func(r row) float64 { return r.time }, [3]float64{0.338, 0.071, 0.049})
	ic := metric("Instructions Completed", func(r row) float64 { return r.ic }, [3]float64{0.471, 0.059, 0.056})
	metric("Instructions Issued", func(r row) float64 { return r.ii }, [3]float64{0.472, 0.063, 0.061})
	ipc := metric("Instructions Completed Per Cycle", func(r row) float64 { return r.ipcC }, [3]float64{1.397, 0.857, 1.209})
	metric("Instructions Issued Per Cycle", func(r row) float64 { return r.ipcI }, [3]float64{1.400, 0.909, 1.316})
	watts := metric("Watts", func(r row) float64 { return r.watts }, [3]float64{1.025, 1.001, 1.029})
	joules := metric("Joules", func(r row) float64 { return r.joules }, [3]float64{0.346, 0.071, 0.050})
	fpj := metric("FLOP/Joule", func(r row) float64 { return r.fpj }, [3]float64{2.867, 13.684, 19.305})

	res.check("Time(O1) relative (paper 0.338)", 0.338, tm[1], 0.25, 0.55)
	res.check("Time(O2) relative (paper 0.071)", 0.071, tm[2], 0.05, 0.30)
	res.check("Time(O3) < Time(O2)", 0, tm[3]/tm[2], 0, 1.0)
	res.check("Instr(O1) relative (paper 0.471)", 0.471, ic[1], 0.35, 0.60)
	res.check("Instr(O2) relative (paper 0.059)", 0.059, ic[2], 0.04, 0.15)
	res.check("IPC rises at O1 (paper 1.397)", 1.397, ipc[1], 1.02, 1.6)
	res.check("IPC dips at O2 vs O1 (ratio < 1)", 0, ipc[2]/ipc[1], 0, 0.95)
	res.check("IPC recovers at O3 vs O2 (ratio > 1)", 0, ipc[3]/ipc[2], 1.02, 3)
	res.check("Watts stay within a few percent (max |1-w|)", 0, maxDev(watts), 0, 0.12)
	res.check("Joules drop monotonically (O3 relative)", 0.050, joules[3], 0.03, 0.30)
	res.check("FLOP/Joule improves by an order of magnitude", 19.3, fpj[3], 4, 40)
	return res, nil
}

func maxDev(v [4]float64) float64 {
	m := 0.0
	for _, x := range v {
		d := x - 1
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}

// --- M1/M2/M3: the §III-B metric scripts ----------------------------------

func runMetricScript(script string, extraArg bool) (*Result, *core.Session, error) {
	s, buf := scriptSession()
	trial, err := genRun(genidlest.Rib90(), genidlest.OpenMP, 16, false)
	if err != nil {
		return nil, nil, err
	}
	if err := s.Repo.SaveContext(context.Background(), trial); err != nil {
		return nil, nil, err
	}
	args := []string{trial.App, trial.Experiment, trial.Name}
	if extraArg {
		base, err := genRun(genidlest.Rib90(), genidlest.OpenMP, 1, false)
		if err != nil {
			return nil, nil, err
		}
		base.Name = "baseline_1"
		if err := s.Repo.SaveContext(context.Background(), base); err != nil {
			return nil, nil, err
		}
		args = append(args, "baseline_1")
	}
	diagnosis.SetArgs(s, args)
	if err := s.RunScript(script); err != nil {
		return nil, nil, err
	}
	res := &Result{}
	for _, l := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		res.addf("%s", l)
	}
	return res, s, nil
}

func runM1() (*Result, error) {
	res, s, err := runMetricScript(diagnosis.ScriptFiles()["inefficiency.pes"], false)
	if err != nil {
		return nil, err
	}
	res.check("high-inefficiency events flagged (paper: six procedures)", 6,
		float64(countFired(s, "High Inefficiency")), 2, 8)
	return res, nil
}

func runM2() (*Result, error) {
	res, s, err := runMetricScript(diagnosis.ScriptFiles()["stall_decomposition.pes"], false)
	if err != nil {
		return nil, err
	}
	res.check("events passing the 90% L1D+FP concentration test", 8,
		float64(countFired(s, "Stall Source Concentration")), 3, 12)
	return res, nil
}

func runM3() (*Result, error) {
	res, s, err := runMetricScript(diagnosis.ScriptFiles()["memory_analysis.pes"], true)
	if err != nil {
		return nil, err
	}
	res.check("poor-locality events flagged", 4, float64(countFired(s, "Poor Data Locality")), 1, 12)
	res.check("sequential bottleneck flagged (exchange_var__)", 1,
		float64(countFired(s, "Sequential Bottleneck")), 1, 4)
	return res, nil
}

func countFired(s *core.Session, rule string) int {
	if s.LastResult() == nil {
		return 0
	}
	n := 0
	for _, f := range s.LastResult().Fired {
		if f == rule {
			n++
		}
	}
	return n
}

// --- A1: ablation of the two GenIDLEST fixes --------------------------------

func runA1() (*Result, error) {
	res := &Result{}
	run := func(fixInit, fixExchange bool) (float64, error) {
		cfg := genidlest.DefaultConfig(genidlest.Rib90(), genidlest.OpenMP, 16)
		cfg.FixInit, cfg.FixExchange = fixInit, fixExchange
		tr, err := genidlest.Run(altix(), cfg)
		if err != nil {
			return 0, err
		}
		return mainTime(tr), nil
	}
	none, err := run(false, false)
	if err != nil {
		return nil, err
	}
	initOnly, err := run(true, false)
	if err != nil {
		return nil, err
	}
	exchOnly, err := run(false, true)
	if err != nil {
		return nil, err
	}
	both, err := run(true, true)
	if err != nil {
		return nil, err
	}
	res.addf("90rib OpenMP @16 threads:")
	res.addf("  no fix:            %8.3f s", none)
	res.addf("  init fix only:     %8.3f s  (%.2fx)", initOnly, none/initOnly)
	res.addf("  exchange fix only: %8.3f s  (%.2fx)", exchOnly, none/exchOnly)
	res.addf("  both fixes:        %8.3f s  (%.2fx)", both, none/both)
	res.check("each fix alone helps (worse single fix still beats none)", 0,
		maxF(initOnly, exchOnly)/none, 0, 0.999)
	res.check("both fixes beat either alone", 0, both/minF(initOnly, exchOnly), 0, 0.999)
	return res, nil
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// --- A2: selective instrumentation ------------------------------------------

const a2Source = `
program hotspot
proc main() {
    loop outer 50000 {
        call tiny
    }
    call heavy
}
proc tiny() {
    compute int=40 dep=0.2
}
proc heavy() {
    compute fp=4000000 int=1000000 loads=2000000 stores=500000 \
            region=big off=0 len=33554432 reuse=8 dep=0.3 firsttouch
}
`

func runA2() (*Result, error) {
	res := &Result{}
	run := func(selective bool) (int, float64, error) {
		prog, err := openuh.ParseSource(a2Source)
		if err != nil {
			return 0, 0, err
		}
		inst := openuh.DefaultInstrumentation()
		inst.Selective = selective
		ex, scores, err := openuh.Compile(prog, openuh.O2, inst, nil)
		if err != nil {
			return 0, 0, err
		}
		selected := 0
		for _, sc := range scores {
			if sc.Selected {
				selected++
			}
		}
		m := machine.New(altix())
		eng := sim.NewEngine(m, sim.Options{Threads: 1})
		ex.LoopCollapse = false // force per-iteration execution so probe cost shows
		trial, err := ex.Run(eng, "hotspot", "ablation", fmt.Sprintf("selective=%v", selective))
		if err != nil {
			return 0, 0, err
		}
		return selected, mainTime(trial), nil
	}
	selN, selT, err := run(true)
	if err != nil {
		return nil, err
	}
	fullN, fullT, err := run(false)
	if err != nil {
		return nil, err
	}
	res.addf("full instrumentation:      %d regions, %0.3f s", fullN, fullT)
	res.addf("selective instrumentation: %d regions, %0.3f s", selN, selT)
	res.check("selective skips the small hot region", 0, float64(selN), 1, float64(fullN-1))
	return res, nil
}

// --- A3: feedback-directed recompilation -------------------------------------

// runA3 closes the Fig. 3 loop the paper leaves as future work: run the MSA
// workload under the compiler's default static schedule, let the captured
// load-imbalance rule diagnose the profile and recommend a schedule, apply
// the recommendation (with the chunk size the parallel cost model picks for
// the measured variability), and re-run.
func runA3() (*Result, error) {
	res := &Result{}
	params := msaParams(16, sim.Schedule{Kind: sim.StaticSched})

	first, err := msa.Run(altix(), params)
	if err != nil {
		return nil, err
	}
	t1 := inclTime0(first, msa.EventMain)
	res.addf("run 1: schedule static           → %.2f s", t1)

	// Diagnose with the knowledge base.
	s, buf := scriptSession()
	if err := s.Repo.SaveContext(context.Background(), first); err != nil {
		return nil, err
	}
	diagnosis.SetArgs(s, []string{first.App, first.Experiment, first.Name})
	if err := s.RunScript(diagnosis.ScriptFiles()["load_balance.pes"]); err != nil {
		return nil, err
	}
	_ = buf
	var recommended string
	for _, rec := range s.LastResult().Recommendations {
		if rec.Category == "scheduling" {
			recommended = rec.Text
		}
	}
	if recommended == "" {
		return nil, fmt.Errorf("no scheduling recommendation produced")
	}
	res.addf("diagnosis: %s", recommended)

	// The recommendation names dynamic scheduling; the parallel cost model
	// picks the chunk from the measured per-thread variability.
	inner := first.Event(msa.EventInner)
	vals := inner.Exclusive[perfdmf.TimeMetric]
	cov := perfdmf.StdDev(vals) / perfdmf.Mean(vals)
	cm := openuh.DefaultCostModel()
	bodyCycles := perfdmf.Sum(inner.Exclusive["CPU_CYCLES"]) / float64(params.Sequences)
	chunk := cm.Parallel.RecommendChunk(int64(params.Sequences), 16, bodyCycles, cov)
	res.addf("cost model: measured cov %.2f → dynamic chunk %d", cov, chunk)

	params.Schedule = sim.Schedule{Kind: sim.DynamicSched, Chunk: chunk}
	second, err := msa.Run(altix(), params)
	if err != nil {
		return nil, err
	}
	t2 := inclTime0(second, msa.EventMain)
	res.addf("run 2: schedule %-14s → %.2f s (%.2fx faster)", params.Schedule, t2, t1/t2)

	res.check("recommended chunk is small (paper: chunk 1 best)", 1, float64(chunk), 1, 2)
	res.check("feedback-directed rerun speedup", 0, t1/t2, 1.5, 4)
	return res, nil
}

// --- A4: hybrid MPI x OpenMP --------------------------------------------

// runA4 exercises GenIDLEST's third programming model: MPI across ranks
// with OpenMP threads inside each rank (the paper: "n MPI processors or
// equivalently n OpenMP threads or various combinations of MPI-OpenMP
// without loss of generality"). With per-unit first-touch data, hybrid
// should track MPI at equal unit counts.
func runA4() (*Result, error) {
	res := &Result{}
	mpi, err := genRun(genidlest.Rib90(), genidlest.MPI, 16, true)
	if err != nil {
		return nil, err
	}
	omp, err := genRun(genidlest.Rib90(), genidlest.OpenMP, 16, true)
	if err != nil {
		return nil, err
	}
	res.addf("90rib at 16 processing units:")
	res.addf("  pure MPI (16 ranks):          %7.3f s", mainTime(mpi))
	res.addf("  pure OpenMP (16 threads, opt):%7.3f s", mainTime(omp))
	var hybridTimes []float64
	for _, tpr := range []int{2, 4, 8} {
		cfg := genidlest.DefaultConfig(genidlest.Rib90(), genidlest.Hybrid, 16)
		cfg.ThreadsPerRank = tpr
		tr, err := genidlest.Run(altix(), cfg)
		if err != nil {
			return nil, err
		}
		res.addf("  hybrid %2d ranks x %d threads:  %7.3f s", 16/tpr, tpr, mainTime(tr))
		hybridTimes = append(hybridTimes, mainTime(tr))
	}
	worst := 0.0
	for _, h := range hybridTimes {
		if r := h / mainTime(mpi); r > worst {
			worst = r
		}
	}
	res.check("hybrid stays within 2x of pure MPI", 0, worst, 0.8, 2.0)
	return res, nil
}

// Summary renders a one-line pass/fail tally across results.
func Summary(results []*Result) string {
	pass, fail := 0, 0
	var failed []string
	for _, r := range results {
		for _, c := range r.Checks {
			if c.OK() {
				pass++
			} else {
				fail++
				failed = append(failed, r.ID+": "+c.Name)
			}
		}
	}
	sort.Strings(failed)
	out := fmt.Sprintf("%d checks: %d pass, %d fail", pass+fail, pass, fail)
	if len(failed) > 0 {
		out += "\nfailed:\n  " + strings.Join(failed, "\n  ")
	}
	return out
}
