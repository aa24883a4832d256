// Package perfknow is a Go reproduction of "Capturing Performance Knowledge
// for Automated Analysis" (Huck et al., SC 2008): the integration of the
// PerfExplorer performance data-mining framework with the OpenUH compiler
// infrastructure, rebuilt from scratch on a simulated SGI Altix ccNUMA
// platform.
//
// The package is a facade over the internal subsystems, no wider than the
// programs under examples/ and this package's own tests use; the commands
// under cmd/ import the subsystems themselves:
//
//   - a ccNUMA machine model with first-touch page placement, an analytic
//     cache cascade and memory-controller queueing (internal/machine);
//   - a virtual-time execution engine with OpenMP (schedules, barriers) and
//     MPI (Isend/Irecv, collectives) runtimes (internal/sim);
//   - a TAU-style measurement runtime producing parallel profiles
//     (internal/tau) stored in a PerfDMF-style repository with TAU-text,
//     JSON and CSV formats (internal/perfdmf);
//   - the PerfExplorer analysis operation library (internal/analysis),
//     scripting language (internal/script) and forward-chaining inference
//     engine with a Drools-like rule language (internal/rules);
//   - an OpenUH-style compiler: multi-level IR, front end, selective
//     instrumentation, cost models, O0..O3 pass pipelines and feedback
//     (internal/openuh), plus the component power model of Eq. 1-2
//     (internal/power);
//   - the paper's two applications as workload models — ClustalW-style
//     multiple sequence alignment and the GenIDLEST fluid-dynamics solver
//     (internal/apps) — and the captured diagnosis knowledge base
//     (internal/diagnosis);
//   - a networked profile service: the perfdmfd HTTP/JSON daemon
//     (internal/dmfserver, cmd/perfdmfd) serving a shared repository and
//     server-side analysis/diagnosis, with a client (internal/dmfclient)
//     that drops into sessions wherever a local repository is accepted;
//   - horizontal scale-out: a sharded, replicated perfdmfd cluster with
//     client-side consistent-hash routing and anti-entropy repair
//     (internal/cluster, docs/CLUSTER.md) behind the same Store surface.
//
// Concurrency has one grain, whole and independent items: the experiments
// of a run and the requests a daemon admits. The -j flag of cmd/experiments
// and of cmd/perfdmfd bounds how many of those are in flight. A
// simulation, a fact builder or an analysis operation runs on the
// goroutine that called it, and a Machine with its Regions and Engine
// belongs to that one goroutine.
//
// Quick start:
//
//	repo := perfknow.NewRepository()
//	trial, _ := perfknow.RunMSA(perfknow.AltixConfig(8, 2), perfknow.MSAParams{
//	    Sequences: 400, MeanLen: 450, LenJitter: 220, Seed: 42,
//	    Threads: 16, Schedule: perfknow.MustSchedule("static"),
//	})
//	repo.Save(trial)
//	s := perfknow.NewSession(repo)
//	perfknow.InstallKnowledgeBase(s, "assets/rules")
//	perfknow.SetScriptArgs(s, []string{trial.App, trial.Experiment, trial.Name})
//	s.RunScript(perfknow.ScriptLoadBalance) // fires the load-imbalance rule
package perfknow

import (
	"perfknow/internal/analysis"
	"perfknow/internal/apps/genidlest"
	"perfknow/internal/apps/msa"
	"perfknow/internal/core"
	"perfknow/internal/diagnosis"
	"perfknow/internal/dmfclient"
	"perfknow/internal/dmfserver"
	"perfknow/internal/dmfwire"
	"perfknow/internal/faults"
	"perfknow/internal/machine"
	"perfknow/internal/openuh"
	"perfknow/internal/perfdmf"
	"perfknow/internal/power"
	"perfknow/internal/rules"
	"perfknow/internal/sim"
	"perfknow/internal/study"
)

// Profile data management (PerfDMF).
type (
	// Trial is one parallel profile: per-thread inclusive/exclusive values
	// for every instrumented event and metric, plus metadata.
	Trial = perfdmf.Trial
	// ProfileServerConfig parameterizes the perfdmfd HTTP service.
	ProfileServerConfig = dmfserver.Config
	// DiagnoseRequest runs one diagnosis script server-side.
	DiagnoseRequest = dmfwire.DiagnoseRequest
	// RetryPolicy controls the remote client's backoff and retry budget.
	RetryPolicy = dmfclient.RetryPolicy
	// FaultOptions parameterize the seeded fault injector of
	// NewFaultSchedule.
	FaultOptions = faults.Options
)

// TimeMetric is the canonical wall-clock metric name (microseconds).
const TimeMetric = perfdmf.TimeMetric

// NewRepository returns an in-memory profile repository.
func NewRepository() *perfdmf.Repository { return perfdmf.NewRepository() }

// OpenRepository returns a file-backed repository rooted at dir.
func OpenRepository(dir string) (*perfdmf.Repository, error) { return perfdmf.OpenRepository(dir) }

// NewProfileServer builds the perfdmfd HTTP service over a repository.
func NewProfileServer(cfg ProfileServerConfig) (*dmfserver.Server, error) { return dmfserver.New(cfg) }

// DialRepository returns a client for the perfdmfd server at baseURL; it
// implements perfdmf.Store, so sessions can run against a networked
// repository. Idempotent requests are retried with exponential backoff;
// pass WithRetryPolicy to tune or disable that.
func DialRepository(baseURL string, opts ...dmfclient.Option) (*dmfclient.Client, error) {
	return dmfclient.New(baseURL, opts...)
}

var (
	// WithRetryPolicy overrides a remote client's retry behavior wholesale.
	WithRetryPolicy = dmfclient.WithRetryPolicy
	// NewFaultSchedule builds the seeded deterministic fault injector; plug
	// it into ProfileServerConfig.FaultInjector to chaos-test a service.
	NewFaultSchedule = faults.NewSchedule
)

// NewTrial creates an empty trial.
func NewTrial(app, experiment, name string, threads int) *Trial {
	return perfdmf.NewTrial(app, experiment, name, threads)
}

// The TAU text, CSV and gprof profile formats.
var (
	WriteTAU   = perfdmf.WriteTAU
	ParseTAU   = perfdmf.ParseTAU
	WriteCSV   = perfdmf.WriteCSV
	ReadCSV    = perfdmf.ReadCSV
	ParseGprof = perfdmf.ParseGprof
)

// NewSession builds a PerfExplorer session — repository, rule engine and
// script interpreter with the object API bound in — over any profile store:
// a local repository, a remote client, or nil for a fresh in-memory
// repository.
func NewSession(repo perfdmf.Store) *core.Session { return core.NewSession(repo) }

// NewRuleEngine returns an empty forward-chaining inference engine.
func NewRuleEngine() *rules.Engine { return rules.NewEngine() }

// NewFact builds a fact for assertion into a rule engine.
func NewFact(factType string, fields map[string]any) *rules.Fact {
	return rules.NewFact(factType, fields)
}

// InstallKnowledgeBase binds the diagnosis fact builders into a session and
// gives RuleHarness its rule files: the built-in knowledge base when
// rulesDir is empty, else the .prl files under rulesDir, read in place.
func InstallKnowledgeBase(s *core.Session, rulesDir string) { diagnosis.Install(s, rulesDir) }

// SetScriptArgs sets the `args` global for the next script run.
func SetScriptArgs(s *core.Session, args []string) { diagnosis.SetArgs(s, args) }

// WriteAssets copies the knowledge base (rules/ and scripts/) out under dir,
// for an operator to edit and pass back as rulesDir.
func WriteAssets(dir string) error { return diagnosis.WriteAssets(dir) }

// The captured analysis scripts: the text of assets/scripts/*.pes.
var (
	ScriptStallsPerCycle     = diagnosis.ScriptFiles()["stalls_per_cycle.pes"]
	ScriptInefficiency       = diagnosis.ScriptFiles()["inefficiency.pes"]
	ScriptStallDecomposition = diagnosis.ScriptFiles()["stall_decomposition.pes"]
	ScriptMemoryAnalysis     = diagnosis.ScriptFiles()["memory_analysis.pes"]
	ScriptLoadBalance        = diagnosis.ScriptFiles()["load_balance.pes"]
	ScriptPowerLevels        = diagnosis.ScriptFiles()["power_levels.pes"]
)

// AltixConfig returns the SGI Altix configuration used throughout the paper
// (nodes × cpusPerNode processors).
func AltixConfig(nodes, cpusPerNode int) machine.Config { return machine.Altix(nodes, cpusPerNode) }

// NewMachine instantiates a machine.
func NewMachine(cfg machine.Config) *machine.Machine { return machine.New(cfg) }

// NewEngine builds a virtual-time execution engine over a machine.
func NewEngine(m *machine.Machine, threads int) *sim.Engine {
	return sim.NewEngine(m, sim.Options{Threads: threads, CallpathDepth: 3})
}

// ParseSchedule parses OpenMP schedule clause syntax ("dynamic,1").
func ParseSchedule(s string) (sim.Schedule, error) { return sim.ParseSchedule(s) }

// MustSchedule is ParseSchedule that panics on error (for literals).
func MustSchedule(s string) sim.Schedule {
	sched, err := sim.ParseSchedule(s)
	if err != nil {
		panic(err)
	}
	return sched
}

// Compiler (OpenUH).
type (
	// OptLevel is -O0..-O3.
	OptLevel = openuh.OptLevel
	// InstrumentOptions control compile-time instrumentation.
	InstrumentOptions = openuh.InstrumentOptions
)

// Optimization levels.
const (
	O0 = openuh.O0
	O1 = openuh.O1
	O2 = openuh.O2
	O3 = openuh.O3
)

// Compiler entry points.
var (
	ParseSource            = openuh.ParseSource
	Compile                = openuh.Compile
	DefaultInstrumentation = openuh.DefaultInstrumentation
	// TuneParallelLoops rewrites worksharing schedules from measured
	// per-thread imbalance — the feedback-directed recompilation loop of
	// Fig. 3.
	TuneParallelLoops = openuh.TuneParallelLoops
)

// PowerReport is the output of the component power model (Eq. 1 and Eq. 2)
// for one trial.
type PowerReport = power.Report

// Itanium2Power returns the Madison processor power model.
func Itanium2Power() power.Model { return power.Itanium2() }

// Applications (the case-study workloads).
type (
	// MSAParams configures the multiple-sequence-alignment workload (§III-A).
	MSAParams = msa.Params
	// GenIDLESTConfig configures the fluid-dynamics workload (§III-B/C).
	GenIDLESTConfig = genidlest.Config
)

// DefaultMSAScore returns the classic +2/-1/-1 Smith-Waterman scoring.
func DefaultMSAScore() msa.ScoreParams { return msa.DefaultScore() }

// GenIDLEST modes.
const (
	ModeOpenMP = genidlest.OpenMP
	ModeMPI    = genidlest.MPI
	ModeHybrid = genidlest.Hybrid
)

// Workload entry points.
var (
	RunMSA             = msa.Run
	MSAEfficiencySweep = msa.EfficiencySweep
	RunGenIDLEST       = genidlest.Run
	Rib45              = genidlest.Rib45
	Rib90              = genidlest.Rib90
	GenIDLESTDefaults  = genidlest.DefaultConfig
	SmithWaterman      = msa.Align
	GenerateSequences  = msa.GenerateSequences
)

// Analysis operations.
var (
	LoadBalanceAnalysis  = analysis.LoadBalanceAnalysis
	KMeansThreadClusters = analysis.KMeans
	DiffTrials           = analysis.DiffTrials
	MergeTrials          = analysis.MergeTrials
	RelativeChange       = analysis.RelativeChange
)

// Parametric studies (multi-experiment sweeps with metadata-stamped trials).
type (
	// Study sweeps a workload over a parameter grid into a repository.
	Study = study.Study
	// StudyPoint is one assignment of parameter values.
	StudyPoint = study.Point
)

// Study helpers.
var (
	StudyGrid   = study.Grid
	StudySeries = study.Series
)
