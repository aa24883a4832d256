package openuh

import (
	"fmt"

	"perfknow/internal/machine"
	"perfknow/internal/sim"
)

// RegionResolver maps a region name to its machine allocation.
type RegionResolver func(name string) *machine.Region

// Executable is a compiled program: the (possibly instrumented) IR plus the
// code generation descriptor produced by the optimizer. Running it drives
// the execution simulator; the TAU-style profile falls out of the
// instrumentation nodes.
type Executable struct {
	Prog  *Program
	CG    CodeGen
	Level OptLevel

	// LoopCollapse lets the executor run compute-only loop bodies as one
	// aggregated kernel per thread rather than iterating, keeping simulation
	// cost independent of trip counts. Equivalent for the analytic machine
	// model up to the rounding of per-invocation overheads (a few percent).
	// Enabled by default.
	LoopCollapse bool
}

// Compile validates, optimizes and instruments a program.
func Compile(p *Program, level OptLevel, inst InstrumentOptions, cm *CostModel) (*Executable, []RegionScore, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	cg := Optimize(p, level, cm)
	scores := Instrument(p, inst)
	return &Executable{Prog: p, CG: cg, Level: level, LoopCollapse: true}, scores, nil
}

// EnsureRegions allocates every region the program references on the
// machine, sized to the maximal extent seen (at least one page).
func (ex *Executable) EnsureRegions(m *machine.Machine) {
	sizes := map[string]int64{}
	var walk func(nodes []*Node)
	walk = func(nodes []*Node) {
		for _, n := range nodes {
			switch n.Kind {
			case KindCompute:
				if n.Work.Region != "" {
					if end := n.Work.Off + n.Work.Len; end > sizes[n.Work.Region] {
						sizes[n.Work.Region] = end
					}
				}
			case KindLoop, KindParallelLoop, KindInstrument:
				walk(n.Body)
			case KindBranch:
				walk(n.Then)
				walk(n.Else)
			}
		}
	}
	for _, proc := range ex.Prog.Procs {
		walk(proc.Body)
	}
	for name, size := range sizes {
		if m.Region(name) == nil {
			if size < m.Config().PageBytes {
				size = m.Config().PageBytes
			}
			m.AllocRegion(name, size)
		}
	}
}

// Run executes the program's main procedure on the engine's master thread
// (parallel loops fan out over the engine's full team) and returns the
// recorded trial.
func (ex *Executable) Run(eng *sim.Engine, app, experiment, trialName string) (*sim.Trial, error) {
	ex.EnsureRegions(eng.Machine())
	resolver := func(name string) *machine.Region { return eng.Machine().Region(name) }
	main := ex.Prog.Proc("main")
	if main == nil {
		return nil, fmt.Errorf("openuh: no main procedure")
	}
	if err := ex.execNodes(eng, eng.Master(), main.Body, resolver, 0); err != nil {
		return nil, err
	}
	t, err := eng.Snapshot(app, experiment, trialName)
	if err != nil {
		return nil, err
	}
	t.Metadata["compiler:opt_level"] = ex.Level.String()
	t.Metadata["compiler:passes"] = fmt.Sprintf("%v", ex.CG.Applied)
	return t, nil
}

const maxCallDepth = 64

func (ex *Executable) execNodes(eng *sim.Engine, t *sim.Thread, nodes []*Node, resolve RegionResolver, depth int) error {
	if depth > maxCallDepth {
		return fmt.Errorf("openuh: call depth exceeds %d (recursive program?)", maxCallDepth)
	}
	for _, n := range nodes {
		if err := ex.execNode(eng, t, n, resolve, depth); err != nil {
			return err
		}
	}
	return nil
}

func (ex *Executable) execNode(eng *sim.Engine, t *sim.Thread, n *Node, resolve RegionResolver, depth int) error {
	switch n.Kind {
	case KindCompute:
		t.Compute(ex.CG.Expand(n.Work, resolve))
		return nil
	case KindLoop:
		if ex.LoopCollapse {
			if w, ok := collapseBody(n.Body); ok {
				scaled := w
				scaled.FP *= uint64(n.Trip)
				scaled.Int *= uint64(n.Trip)
				scaled.Loads *= uint64(n.Trip)
				scaled.Stores *= uint64(n.Trip)
				scaled.Branches *= uint64(n.Trip)
				t.Compute(ex.CG.Expand(scaled, resolve))
				return nil
			}
		}
		for i := int64(0); i < n.Trip; i++ {
			if err := ex.execNodes(eng, t, n.Body, resolve, depth); err != nil {
				return err
			}
		}
		return nil
	case KindParallelLoop:
		sched := sim.Schedule{Kind: sim.StaticSched}
		if n.Schedule != "" {
			s, err := sim.ParseSchedule(n.Schedule)
			if err != nil {
				return err
			}
			sched = s
		}
		name := n.Name
		if name == "" {
			name = "parallel_loop"
		}
		// Loop bodies in this IR reference constant byte ranges, so every
		// iteration of a first-touch statement touches the same pages:
		// iteration 0, which logical thread 0 runs first, places them all.
		var err error
		eng.ParallelFor(name, int(n.Trip), sched, func(worker *sim.Thread, i int) {
			if err == nil {
				err = ex.execNodes(eng, worker, n.Body, resolve, depth)
			}
		})
		return err
	case KindCall:
		callee := ex.Prog.Proc(n.Name)
		if callee == nil {
			return fmt.Errorf("openuh: call to undefined procedure %q", n.Name)
		}
		return ex.execNodes(eng, t, callee.Body, resolve, depth+1)
	case KindBranch:
		// Expected-value execution: take the likelier side, charging the
		// branch itself to the enclosing compute statements.
		if n.Prob >= 0.5 {
			return ex.execNodes(eng, t, n.Then, resolve, depth)
		}
		return ex.execNodes(eng, t, n.Else, resolve, depth)
	case KindBarrier:
		// A barrier outside a parallel region is a no-op for one thread.
		return nil
	case KindInstrument:
		t.Enter(n.Name)
		err := ex.execNodes(eng, t, n.Body, resolve, depth)
		t.Leave(n.Name)
		return err
	}
	return fmt.Errorf("openuh: unknown node kind %d", n.Kind)
}

// collapseBody reports whether the body is a single compute statement (the
// only shape safe to aggregate across iterations).
func collapseBody(body []*Node) (Work, bool) {
	if len(body) == 1 && body[0].Kind == KindCompute {
		return body[0].Work, true
	}
	return Work{}, false
}
