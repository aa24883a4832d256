// Package perfknow is a Go reproduction of "Capturing Performance Knowledge
// for Automated Analysis" (Huck et al., SC 2008): the integration of the
// PerfExplorer performance data-mining framework with the OpenUH compiler
// infrastructure, rebuilt from scratch on a simulated SGI Altix ccNUMA
// platform.
//
// The package is a facade over the internal subsystems:
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
// Concurrency has one grain, whole and independent items: the trials of a
// batch, the experiments of a run, the requests a daemon admits. The CLIs'
// -j flag bounds how many of those are in flight. A simulation, a fact
// builder or an analysis operation runs on the goroutine that called it,
// and a Machine with its Regions and Engine belongs to that one goroutine.
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
	"perfknow/internal/cluster"
	"perfknow/internal/core"
	"perfknow/internal/diagnosis"
	"perfknow/internal/dmfclient"
	"perfknow/internal/dmfserver"
	"perfknow/internal/dmfwire"
	"perfknow/internal/faults"
	"perfknow/internal/machine"
	"perfknow/internal/obs"
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
	// Event is one instrumented code region within a trial.
	Event = perfdmf.Event
	// Repository stores trials in the Application→Experiment→Trial hierarchy.
	Repository = perfdmf.Repository
	// Store is the repository surface (local Repository or remote client).
	Store = perfdmf.Store
	// ProfileServer is the perfdmfd HTTP service over a shared repository.
	ProfileServer = dmfserver.Server
	// ProfileServerConfig parameterizes a ProfileServer.
	ProfileServerConfig = dmfserver.Config
	// RemoteRepository is a client for a perfdmfd server; it implements
	// Store, so sessions can run against a networked repository.
	RemoteRepository = dmfclient.Client
	// AnalyzeRequest selects one server-side analysis operation.
	AnalyzeRequest = dmfwire.AnalyzeRequest
	// AnalyzeResponse carries a server-side analysis result.
	AnalyzeResponse = dmfwire.AnalyzeResponse
	// DiagnoseRequest runs one diagnosis script server-side.
	DiagnoseRequest = dmfwire.DiagnoseRequest
	// DiagnoseResponse is the remote twin of a local script run.
	DiagnoseResponse = dmfwire.DiagnoseResponse
	// RetryPolicy controls the remote client's backoff and retry budget.
	RetryPolicy = dmfclient.RetryPolicy
	// RemoteOption customizes a RemoteRepository (retry policy, timeouts,
	// transport).
	RemoteOption = dmfclient.Option
	// ClusterRing is the membership descriptor of a sharded perfdmfd
	// cluster: peers, replication factor, virtual nodes, placement seed,
	// placement version and epoch. Every member and every routing client
	// must share one descriptor per epoch; a newer epoch announced to any
	// gossiping member propagates cluster-wide.
	ClusterRing = dmfwire.Ring
	// ClusterStore routes Store operations across a perfdmfd cluster —
	// replicated writes with hinted handoff, fan-out reads, union
	// listings — so sessions run against a cluster unchanged. See
	// DialCluster.
	ClusterStore = cluster.ShardedStore
	// ClusterOption customizes a ClusterStore (shared registry, tracer).
	ClusterOption = cluster.Option
	// ClusterAgent is the daemon-side self-healing loop: gossip
	// membership with failure detection, hinted-handoff replay, and
	// leader-driven anti-entropy repair. perfdmfd runs one per member.
	ClusterAgent = cluster.Agent
	// ClusterAgentConfig configures a ClusterAgent.
	ClusterAgentConfig = cluster.AgentConfig
	// ClusterMembership is the gossip exchange message: per-peer
	// incarnations and liveness states plus the sender's ring.
	ClusterMembership = dmfwire.Membership
	// ClusterGossipView is the operator-facing JSON view of one member's
	// membership state (GET /api/v1/cluster/gossip).
	ClusterGossipView = dmfwire.GossipView
	// RepairReport summarizes one anti-entropy Rebalance pass.
	RepairReport = dmfwire.RepairReport
	// StreamInfo describes one streaming upload: coordinates, analysis
	// window, standing rules, state and progress counters.
	StreamInfo = dmfwire.StreamInfo
	// StreamChunkEvent is one event's contribution within a stream chunk;
	// values accumulate into the event across chunks.
	StreamChunkEvent = dmfwire.ChunkEvent
	// StreamAlert is one standing-diagnosis firing, delivered over the
	// stream's SSE alert subscription.
	StreamAlert = dmfwire.StreamAlert
	// StreamOption customizes RemoteRepository.OpenStream (window size,
	// standing rules, diagnosis metric).
	StreamOption = dmfclient.StreamOption
	// AlertSubscription is a live standing-diagnosis subscription with
	// transparent Last-Event-ID reconnects; see
	// RemoteRepository.SubscribeAlerts.
	AlertSubscription = dmfclient.AlertSubscription
	// FaultInjector decides which requests a fault-injecting server or
	// transport disturbs; see NewFaultSchedule.
	FaultInjector = faults.Injector
	// FaultSchedule is the deterministic seeded FaultInjector used by the
	// chaos test suite.
	FaultSchedule = faults.Schedule
	// FaultOptions parameterize a FaultSchedule.
	FaultOptions = faults.Options
)

// TimeMetric is the canonical wall-clock metric name (microseconds).
const TimeMetric = perfdmf.TimeMetric

// ErrNotFound is wrapped by Store.GetTrial — local or remote — when the
// requested trial does not exist; match with errors.Is.
var ErrNotFound = perfdmf.ErrNotFound

// ErrCorrupt is wrapped by trial reads that hit a damaged file (checksum
// mismatch, truncation, undecodable JSON); the repository quarantines the
// file to <name>.corrupt so siblings keep working. Match with errors.Is.
var ErrCorrupt = perfdmf.ErrCorrupt

// ErrReadOnly is returned by Repository.Save while the store is in
// read-only degraded mode (persistent out-of-space); Repository.Verify
// probes the volume and clears the mode once writes succeed again.
var ErrReadOnly = perfdmf.ErrReadOnly

// FsckReport is the result of Repository.Verify — the consistency scan
// behind `perfdmfd -fsck` and GET /api/v1/fsck.
type FsckReport = perfdmf.FsckReport

// NewRepository returns an in-memory profile repository.
func NewRepository() *Repository { return perfdmf.NewRepository() }

// OpenRepository returns a file-backed repository rooted at dir.
func OpenRepository(dir string) (*Repository, error) { return perfdmf.OpenRepository(dir) }

// NewProfileServer builds the perfdmfd HTTP service over a repository.
func NewProfileServer(cfg ProfileServerConfig) (*ProfileServer, error) { return dmfserver.New(cfg) }

// DialRepository returns a client for the perfdmfd server at baseURL.
// Idempotent requests are retried with exponential backoff per
// DefaultRetryPolicy; pass WithRetryPolicy to tune or disable that.
func DialRepository(baseURL string, opts ...RemoteOption) (*RemoteRepository, error) {
	return dmfclient.New(baseURL, opts...)
}

// DialCluster returns a Store routed across a sharded perfdmfd cluster:
// writes replicate to the ring's R owners, reads fan out with fallback,
// and listings union every peer. clientOpts apply to each per-peer
// connection; see cluster.ShardedStore for the routing semantics and
// Rebalance for anti-entropy repair.
func DialCluster(ring ClusterRing, clientOpts []RemoteOption, opts ...ClusterOption) (*ClusterStore, error) {
	return cluster.Dial(ring, clientOpts, opts...)
}

// Client construction knobs — functional options for DialRepository (see
// internal/dmfclient and internal/faults).
var (
	// DefaultRetryPolicy is the retry budget DialRepository starts from.
	DefaultRetryPolicy = dmfclient.DefaultRetryPolicy
	// WithRetryPolicy overrides a RemoteRepository's retry behavior wholesale.
	WithRetryPolicy = dmfclient.WithRetryPolicy
	// WithMaxAttempts bounds total tries per request, including the first.
	WithMaxAttempts = dmfclient.WithMaxAttempts
	// WithBackoff sets the retry backoff's base delay and per-step cap.
	WithBackoff = dmfclient.WithBackoff
	// WithRetrySeed decorrelates retry jitter across clients.
	WithRetrySeed = dmfclient.WithRetrySeed
	// WithTimeout sets the per-attempt request timeout.
	WithTimeout = dmfclient.WithTimeout
	// WithTracer traces every client request (retries as sibling spans) and
	// publishes swallowed listing errors as events.
	WithTracer = dmfclient.WithTracer
	// WithMetricsRegistry shares a metrics registry with the client.
	WithMetricsRegistry = dmfclient.WithRegistry
	// NewFaultSchedule builds the seeded deterministic fault injector; plug
	// it into ProfileServerConfig.FaultInjector to chaos-test a service.
	NewFaultSchedule = faults.NewSchedule
	// WithStreamWindow sets a stream's standing-analysis window in chunks
	// (values below 1 request a cumulative window).
	WithStreamWindow = dmfclient.WithStreamWindow
	// WithStandingRules registers named .prl rule sets as standing
	// diagnoses on a stream.
	WithStandingRules = dmfclient.WithStandingRules
	// WithStreamMetric selects the metric a stream's standing diagnoses
	// analyze.
	WithStreamMetric = dmfclient.WithStreamMetric
	// WithLastEventID resumes an alert subscription after a previously
	// seen alert id.
	WithLastEventID = dmfclient.WithLastEventID
)

// Self-observability (internal/obs): the tool traces and meters itself with
// the same structured-data discipline it applies to application profiles.
type (
	// Tracer collects spans into bounded, queryable traces.
	Tracer = obs.Tracer
	// Span is one in-flight traced operation (nil is a valid no-op span).
	Span = obs.Span
	// Trace is one completed span tree.
	Trace = obs.Trace
	// TraceSummary is the listing form of a trace (GET /api/v1/traces).
	TraceSummary = obs.TraceSummary
	// SpanData is the serialized form of a completed span.
	SpanData = obs.SpanData
	// TelemetryEvent is an out-of-band observation (span errors, swallowed
	// listing failures); register observers with Tracer.OnEvent.
	TelemetryEvent = obs.Event
	// MetricsRegistry holds counters, gauges and histograms; shared by the
	// profile server, the remote client and the worker pool.
	MetricsRegistry = obs.Registry
	// ServiceMetrics is the versioned typed snapshot served by
	// GET /api/v1/metrics.
	ServiceMetrics = dmfwire.Metrics
)

// NewTracer returns a tracer whose spans are stamped with service (e.g.
// "perfexplorer"); install it on a context with ContextWithTracer or on a
// remote client with WithTracer.
func NewTracer(service string) *Tracer {
	t := obs.NewTracer()
	t.Service = service
	return t
}

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// Tracing entry points.
var (
	// ContextWithTracer arranges for StartSpan calls beneath the context to
	// record into the tracer.
	ContextWithTracer = obs.ContextWithTracer
	// StartSpan opens a span beneath the context's current span.
	StartSpan = obs.StartSpan
	// TrialFromTrace re-ingests a trace as a profile trial, so the rules
	// engine can diagnose the analysis system with its own knowledge base.
	TrialFromTrace = perfdmf.TrialFromTrace
)

// NewTrial creates an empty trial.
func NewTrial(app, experiment, name string, threads int) *Trial {
	return perfdmf.NewTrial(app, experiment, name, threads)
}

// WriteTAU / ParseTAU expose the TAU text profile format.
var (
	WriteTAU = perfdmf.WriteTAU
	ParseTAU = perfdmf.ParseTAU
	WriteCSV = perfdmf.WriteCSV
	ReadCSV  = perfdmf.ReadCSV
)

// PerfExplorer session (scripting + inference).
type (
	// Session is a PerfExplorer 2.0 session: repository + rule engine +
	// script interpreter with the object API bound in. Scripts are
	// compiled to Go closures; that is the only script engine.
	Session = core.Session
	// TrialObject wraps a Trial for the scripting interface.
	TrialObject = core.TrialObject
	// RuleEngine is the forward-chaining inference engine. Matching is
	// incremental (a Rete-style network fed by Assert/Retract); a pattern
	// that fails to evaluate is an error from Run while the offending
	// fact is in working memory.
	RuleEngine = rules.Engine
	// Fact is a working-memory element.
	Fact = rules.Fact
	// Recommendation is a structured suggestion from a fired rule.
	Recommendation = rules.Recommendation
)

// NewSession builds a session over any profile store — a local Repository,
// a RemoteRepository, or nil for a fresh in-memory repository.
func NewSession(repo Store) *Session { return core.NewSession(repo) }

// NewRuleEngine returns an empty inference engine.
func NewRuleEngine() *RuleEngine { return rules.NewEngine() }

// NewFact builds a fact for assertion into a rule engine.
func NewFact(factType string, fields map[string]any) *Fact { return rules.NewFact(factType, fields) }

// InstallKnowledgeBase binds the diagnosis fact builders into a session and
// points scripts at the directory holding the .prl rule files.
func InstallKnowledgeBase(s *Session, rulesDir string) { diagnosis.Install(s, rulesDir) }

// SetScriptArgs sets the `args` global for the next script run.
func SetScriptArgs(s *Session, args []string) { diagnosis.SetArgs(s, args) }

// WriteAssets materializes the knowledge base (rules/ and scripts/) under dir.
func WriteAssets(dir string) error { return diagnosis.WriteAssets(dir) }

// The captured analysis scripts (see internal/diagnosis).
const (
	ScriptStallsPerCycle     = diagnosis.ScriptStallsPerCycle
	ScriptInefficiency       = diagnosis.ScriptInefficiency
	ScriptStallDecomposition = diagnosis.ScriptStallDecomposition
	ScriptMemoryAnalysis     = diagnosis.ScriptMemoryAnalysis
	ScriptLoadBalance        = diagnosis.ScriptLoadBalance
	ScriptPowerLevels        = diagnosis.ScriptPowerLevels
	ScriptSynchronization    = diagnosis.ScriptSynchronization
	ScriptThreadClusters     = diagnosis.ScriptThreadClusters
)

// Machine and execution.
type (
	// MachineConfig parameterizes the ccNUMA machine model.
	MachineConfig = machine.Config
	// Machine is an instantiated platform with page placement state.
	Machine = machine.Machine
	// Schedule is an OpenMP loop schedule clause.
	Schedule = sim.Schedule
	// Engine is the virtual-time execution engine.
	Engine = sim.Engine
)

// AltixConfig returns the SGI Altix configuration used throughout the paper
// (nodes × cpusPerNode processors).
func AltixConfig(nodes, cpusPerNode int) MachineConfig { return machine.Altix(nodes, cpusPerNode) }

// NewMachine instantiates a machine.
func NewMachine(cfg MachineConfig) *Machine { return machine.New(cfg) }

// NewEngine builds an execution engine over a machine.
func NewEngine(m *Machine, threads int) *Engine {
	return sim.NewEngine(m, sim.Options{Threads: threads, CallpathDepth: 3})
}

// ParseSchedule parses OpenMP schedule clause syntax ("dynamic,1").
func ParseSchedule(s string) (Schedule, error) { return sim.ParseSchedule(s) }

// MustSchedule is ParseSchedule that panics on error (for literals).
func MustSchedule(s string) Schedule {
	sched, err := sim.ParseSchedule(s)
	if err != nil {
		panic(err)
	}
	return sched
}

// Compiler (OpenUH).
type (
	// Program is the compiler's multi-level tree IR.
	Program = openuh.Program
	// OptLevel is -O0..-O3.
	OptLevel = openuh.OptLevel
	// InstrumentOptions control compile-time instrumentation.
	InstrumentOptions = openuh.InstrumentOptions
	// Executable is a compiled, instrumented program.
	Executable = openuh.Executable
	// CostModel bundles the processor/cache/parallel models plus feedback.
	CostModel = openuh.CostModel
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
	ParseOptLevel          = openuh.ParseOptLevel
	DefaultInstrumentation = openuh.DefaultInstrumentation
	DefaultCostModel       = openuh.DefaultCostModel
)

// Power model (Eq. 1 and Eq. 2).
type (
	// PowerModel estimates processor power from counter access rates.
	PowerModel = power.Model
	// PowerReport is the model's output for one trial.
	PowerReport = power.Report
)

// Itanium2Power returns the Madison processor power model.
func Itanium2Power() PowerModel { return power.Itanium2() }

// Applications (the case-study workloads).
type (
	// MSAParams configures the multiple-sequence-alignment workload (§III-A).
	MSAParams = msa.Params
	// GenIDLESTConfig configures the fluid-dynamics workload (§III-B/C).
	GenIDLESTConfig = genidlest.Config
	// GenIDLESTProblem selects 45rib or 90rib.
	GenIDLESTProblem = genidlest.Problem
	// MSAScore holds Smith-Waterman scoring constants.
	MSAScore = msa.ScoreParams
)

// DefaultMSAScore returns the classic +2/-1/-1 Smith-Waterman scoring.
func DefaultMSAScore() MSAScore { return msa.DefaultScore() }

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
	DeriveMetric         = analysis.DeriveMetric
	ReduceTrial          = analysis.Reduce
	LoadBalanceAnalysis  = analysis.LoadBalanceAnalysis
	ScalingSeries        = analysis.ScalingSeries
	PerEventSpeedup      = analysis.PerEventSpeedup
	TopNEvents           = analysis.TopN
	KMeansThreadClusters = analysis.KMeans
	DiffTrials           = analysis.DiffTrials
	MergeTrials          = analysis.MergeTrials
	RelativeChange       = analysis.RelativeChange
)

// ParseGprof imports a gprof flat profile as a single-thread trial.
var ParseGprof = perfdmf.ParseGprof

// TuneParallelLoops rewrites worksharing schedules from measured per-thread
// imbalance — the feedback-directed recompilation loop of Fig. 3.
var TuneParallelLoops = openuh.TuneParallelLoops

// Inlining: static (by callee weight) and feedback-directed (by measured
// call counts — "callsite counts to improve inlining").
var (
	InlineCalls  = openuh.InlineCalls
	TuneInlining = openuh.TuneInlining
	ProcWeight   = openuh.ProcWeight
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

// Reductions for ReduceTrial.
const (
	ReduceMean   = analysis.ReduceMean
	ReduceTotal  = analysis.ReduceTotal
	ReduceMax    = analysis.ReduceMax
	ReduceMin    = analysis.ReduceMin
	ReduceStdDev = analysis.ReduceStdDev
)
