package diagnosis

import (
	"fmt"

	"perfknow/internal/core"
	"perfknow/internal/perfdmf"
	"perfknow/internal/power"
	"perfknow/internal/rules"
	"perfknow/internal/script"
)

// Install binds the knowledge base's fact builders into a session's script
// interpreter and points `rulesdir` at the directory holding the .prl
// files. Scripts additionally receive their arguments through the `args`
// global (set per run with SetArgs).
func Install(s *core.Session, rulesDir string) {
	s.Interp.SetGlobal("rulesdir", rulesDir)
	s.Interp.SetGlobal("args", script.NewList())
	s.Interp.Bind(Functions)
}

// Functions are the knowledge base's fact builders and the power estimate.
// A fact builder returns how many facts it asserted.
var Functions = script.NewModule("",
	trialFacts("InefficiencyFacts", "assert an InefficiencyFact per flat event (§III-B step 1)", AssertInefficiencyFacts),
	trialFacts("StallSourceFacts", "assert a StallSourcesFact per flat event (§III-B step 2)", AssertStallSourceFacts),
	trialFacts("LocalityFacts", "assert a LocalityFact per flat event (§III-B step 3)", AssertLocalityFacts),
	trialFacts("SyncFacts", "assert a SyncFact per flat event with cycle data", AssertSyncFacts),
	core.Def("ScalingFacts(base trial, scaled trial)", "assert a ScalingFact per event the two trials share", func(in *script.Interp, _ script.Value, a []script.Value) (script.Value, error) {
		return float64(AssertScalingFacts(core.SessionOf(in).Engine, core.TrialOf(a[0]), core.TrialOf(a[1]))), nil
	}),
	core.Def("ClusterFacts(trial trial, metric metric, k count)", "k-means over the threads; assert a ClusterFact per cluster", func(in *script.Interp, _ script.Value, a []script.Value) (script.Value, error) {
		n, err := AssertClusterFacts(core.SessionOf(in).Engine, core.TrialOf(a[0]), a[1].(string), int(a[2].(float64)))
		return float64(n), err
	}),
	core.Def("PowerEstimate(trial trial)", "the power model's report: watts, totalWatts, joules, flopPerJoule, seconds, ipc", func(_ *script.Interp, _ script.Value, a []script.Value) (script.Value, error) {
		rep, err := power.Itanium2().Estimate(core.TrialOf(a[0]))
		if err != nil {
			return nil, err
		}
		m := script.NewMap()
		m.Entries["watts"] = rep.WattsPerProc
		m.Entries["totalWatts"] = rep.TotalWatts
		m.Entries["joules"] = rep.Joules
		m.Entries["flopPerJoule"] = rep.FLOPPerJoule
		m.Entries["seconds"] = rep.Seconds
		m.Entries["ipc"] = rep.IPC
		return m, nil
	}),
	core.Def("PowerFacts(levels map)", "assert a PowerFact per optimisation level of a map level -> trial", func(in *script.Interp, _ script.Value, a []script.Value) (script.Value, error) {
		m := a[0].(*script.Map)
		model := power.Itanium2()
		reports := make(map[string]*power.Report, len(m.Entries))
		for level, v := range m.Entries {
			to, ok := v.(*core.TrialObject)
			if !ok {
				return nil, fmt.Errorf("level %s is not a trial", level)
			}
			rep, err := model.Estimate(to.Trial)
			if err != nil {
				return nil, fmt.Errorf("level %s: %w", level, err)
			}
			reports[level] = rep
		}
		return float64(AssertPowerFacts(core.SessionOf(in).Engine, reports)), nil
	}),
)

func trialFacts(name, doc string, build func(*rules.Engine, *perfdmf.Trial) (int, error)) *script.Builtin {
	return core.Def(name+"(trial trial)", doc, func(in *script.Interp, _ script.Value, a []script.Value) (script.Value, error) {
		n, err := build(core.SessionOf(in).Engine, core.TrialOf(a[0]))
		return float64(n), err
	})
}

// SetArgs sets the `args` global for the next script run.
func SetArgs(s *core.Session, args []string) {
	l := script.NewList()
	for _, a := range args {
		l.Items = append(l.Items, a)
	}
	s.Interp.SetGlobal("args", l)
}
