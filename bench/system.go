package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"perfknow/internal/apps/genidlest"
	"perfknow/internal/cluster"
	"perfknow/internal/core"
	"perfknow/internal/diagnosis"
	"perfknow/internal/dmfclient"
	"perfknow/internal/dmfserver"
	"perfknow/internal/dmfwire"
	"perfknow/internal/obs"
	"perfknow/internal/perfdmf"
	"perfknow/internal/sim"
	"perfknow/internal/vfs"
)

// target is what the request workers call: a dmfclient.Client for the
// single-daemon workloads, a cluster.ShardedStore for cluster_rw.
type target interface {
	perfdmf.ContextStore
	ListTrials(app, experiment string) ([]string, error)
}

// diagCase is one (script, trial) pair of the diagnose round-robin.
type diagCase struct {
	script string
	args   []string
}

// inputs is everything a run generates from its seed.
type inputs struct {
	seed  int64
	ks    *keyspace                // storage workloads
	m     []*perfdmf.Trial         // diagnose_live: simulated trials
	cycle [][]dmfwire.ChunkEvent   // diagnose_live: one stream cycle
	diag  []diagCase               // diagnose_live
	ana   []dmfwire.AnalyzeRequest // diagnose_live
}

func buildInputs(w *workload, seed int64) (*inputs, error) {
	// The inputs and the op schedule use separate sources so that adding
	// an input never shifts the schedule.
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	in := &inputs{seed: seed}
	if w.keys > 0 {
		in.ks = newKeyspace(w.shape, w.keys, w.exps, w.variants, rng)
	}
	if w.name != "diagnose_live" {
		return in, nil
	}
	m, err := simulateM(seed)
	if err != nil {
		return nil, err
	}
	in.m = m
	in.cycle = streamCycle(rng)
	genScripts := []string{"stalls_per_cycle", "inefficiency", "memory_analysis", "stall_decomposition"}
	g := 0
	for _, t := range m {
		args := []string{t.App, t.Experiment, t.Name}
		if t.App == "MSAP" {
			in.diag = append(in.diag, diagCase{"load_balance", args})
			if strings.HasSuffix(t.Name, "static") {
				in.diag = append(in.diag, diagCase{"synchronization", args}, diagCase{"thread_clusters", args})
			}
			continue
		}
		in.diag = append(in.diag, diagCase{genScripts[g%len(genScripts)], args})
		g++
	}
	anaOps := []dmfwire.AnalyzeRequest{
		{Op: "stats", Metric: perfdmf.TimeMetric},
		{Op: "topn", Metric: perfdmf.TimeMetric, N: 5},
		{Op: "loadbalance", Metric: perfdmf.TimeMetric},
		{Op: "cluster", Metric: perfdmf.TimeMetric, K: 2},
		{Op: "derive", Lhs: "BACK_END_BUBBLE_ALL", Rhs: "CPU_CYCLES", Operator: "/"},
	}
	for _, t := range m {
		for _, req := range anaOps {
			req.App, req.Experiment, req.Trial = t.App, t.Experiment, t.Name
			in.ana = append(in.ana, req)
		}
	}
	return in, nil
}

// node is one in-process perfdmfd, wired as cmd/perfdmfd wires it.
type node struct {
	dir   string
	url   string
	repo  *perfdmf.Repository
	srv   *dmfserver.Server
	http  *http.Server
	agent *cluster.Agent
	done  chan error
}

// system is one booted instance of the service under test plus the
// harness state the oracles need.
type system struct {
	w  *workload
	in *inputs
	tr *tracer // nil in untraced runs

	root     string // everything this boot wrote lives under here
	rulesDir string
	nodes    []*node
	client   *dmfclient.Client     // single-daemon workloads
	store    *cluster.ShardedStore // cluster_rw
	target   target

	keys   []keyState
	stream *liveStream

	seenMu    sync.Mutex
	diagSeen  map[int][2]*dmfwire.DiagnoseResponse // case → first and last response
	anaSeen   map[int][2]*dmfwire.AnalyzeResponse
	lastStudy [2]*perfdmf.Trial
}

// keyState tracks which variants a key may hold once the run is over. Two
// saves of one key that overlap in time may land in either order, so the
// oracle accepts any member of the last overlapping group.
type keyState struct {
	mu       sync.Mutex
	inflight int
	group    uint64
	cands    uint64
}

func discardLogger() *slog.Logger {
	// perfdmfd logs requests as JSON to stderr; the harness pays for the
	// same formatting and drops the bytes.
	return slog.New(slog.NewJSONHandler(io.Discard, nil))
}

// boot builds the inputs, preloads the keyspace, starts the daemons and
// connects the caller. workDir must be inside the checkout.
func boot(w *workload, opt Options, workDir string, tr *tracer) (_ *system, err error) {
	seed := opt.Seed
	in, err := buildInputs(w, seed)
	if err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(workDir, w.name+"-")
	if err != nil {
		return nil, err
	}
	s := &system{w: w, in: in, tr: tr, root: root,
		diagSeen: make(map[int][2]*dmfwire.DiagnoseResponse),
		anaSeen:  make(map[int][2]*dmfwire.AnalyzeResponse)}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	// dmfserver.New would otherwise materialize the knowledge base under
	// the system temp dir, outside the checkout.
	if err := diagnosis.WriteAssets(filepath.Join(root, "assets")); err != nil {
		return nil, err
	}
	s.rulesDir = filepath.Join(root, "assets", "rules")
	if w.name == "study_pipeline" {
		// Set-up proves the pipeline end to end once — both simulators
		// run, every script recommends something — before anything is timed.
		_, err := s.study(nil)
		return s, err
	}

	nNodes := 1
	if w.cluster {
		nNodes = 3
	}
	listeners := make([]net.Listener, nNodes)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners[i] = ln
		s.nodes = append(s.nodes, &node{
			dir: filepath.Join(root, fmt.Sprintf("repo%d", i)),
			url: "http://" + ln.Addr().String(),
		})
	}
	var desc dmfwire.Ring
	if w.cluster {
		peers := make([]string, nNodes)
		for i, n := range s.nodes {
			peers[i] = n.url
		}
		desc = dmfwire.Ring{Version: 2, Epoch: 1, Replicas: 2, VNodes: 64, Peers: peers}.Canonical()
	}
	if err := s.preload(desc); err != nil {
		return nil, err
	}
	for i, n := range s.nodes {
		if err := s.startNode(i, n, listeners[i], desc); err != nil {
			return nil, err
		}
	}

	var clientOpts []dmfclient.Option
	if tr != nil {
		clientOpts = append(clientOpts, dmfclient.WithTransport(&timedTransport{next: http.DefaultTransport, tr: tr}))
	}
	if w.cluster {
		if tr == nil {
			s.store, err = cluster.Dial(desc, nil)
		} else {
			backends := make(map[string]cluster.Backend, nNodes)
			for _, n := range s.nodes {
				c, cerr := dmfclient.New(n.url, clientOpts...)
				if cerr != nil {
					return nil, cerr
				}
				backends[n.url] = &tracedBackend{Client: c, host: strings.TrimPrefix(n.url, "http://"), tr: tr}
			}
			s.store, err = cluster.New(desc, backends)
		}
		if err != nil {
			return nil, err
		}
		// What a cluster client does on connect: every member must serve
		// the descriptor placement was computed from.
		confirmed, err := s.store.EnsureRing(context.Background())
		if err != nil {
			return nil, err
		}
		if confirmed != nNodes {
			return nil, fmt.Errorf("cluster: %d of %d members confirmed the ring", confirmed, nNodes)
		}
		s.target = s.store
	} else {
		s.client, err = dmfclient.New(s.nodes[0].url, clientOpts...)
		if err != nil {
			return nil, err
		}
		if err := s.client.Health(); err != nil {
			return nil, err
		}
		s.target = s.client
	}
	if w.name == "diagnose_live" {
		s.stream = &liveStream{sys: s, dues: make(map[int64]time.Time)}
		if err := s.stream.open(context.Background()); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// preloadFS is vfs.OS without the durability barriers. Only preload uses
// it: the stationary state is what an earlier run of the daemon left behind,
// and waiting for 2048 × 2 fsyncs per boot would leave no time to measure.
// The daemons serve on vfs.OS itself.
type preloadFS struct{ vfs.OS }

func (preloadFS) WriteFile(path string, data []byte, perm fs.FileMode) error {
	return os.WriteFile(path, data, perm)
}

func (preloadFS) SyncDir(string) error { return nil }

// preload writes the stationary state straight into the repository
// directories: variant 0 at every key, or the simulated trials. The daemons
// then open those directories cold.
func (s *system) preload(desc dmfwire.Ring) error {
	pre := make([]*perfdmf.Repository, len(s.nodes))
	for i, n := range s.nodes {
		r, err := perfdmf.OpenRepositoryFS(n.dir, preloadFS{})
		if err != nil {
			return err
		}
		pre[i] = r
	}
	if s.in.ks == nil {
		for _, t := range s.in.m {
			if err := pre[0].Save(t); err != nil {
				return err
			}
		}
		return nil
	}
	owners := func(string) []int { return []int{0} }
	if s.w.cluster {
		ring, err := cluster.NewRing(desc)
		if err != nil {
			return err
		}
		byURL := make(map[string]int, len(s.nodes))
		for i, n := range s.nodes {
			byURL[n.url] = i
		}
		owners = func(exp string) []int {
			var out []int
			for _, peer := range ring.Owners(benchApp, exp) {
				out = append(out, byURL[peer])
			}
			return out
		}
	}
	s.keys = make([]keyState, s.in.ks.keys)
	for k := range s.keys {
		s.keys[k].cands = 1
		t := s.in.ks.trial(k, 0)
		for _, i := range owners(t.Experiment) {
			if err := pre[i].Save(t); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *system) startNode(i int, n *node, ln net.Listener, desc dmfwire.Ring) error {
	var base vfs.FS = vfs.OS{}
	if s.tr != nil {
		base = &countingFS{FS: base, tr: s.tr, node: i}
	}
	var err error
	n.repo, err = perfdmf.OpenRepositoryFS(n.dir, base)
	if err != nil {
		return err
	}
	logger := discardLogger()
	cfg := dmfserver.Config{Repo: n.repo, RulesDir: s.rulesDir, Logger: logger}
	if s.w.cluster {
		// cmd/perfdmfd's defaults for an active member.
		reg := obs.NewRegistry()
		n.agent, err = cluster.NewAgent(cluster.AgentConfig{
			Self:           n.url,
			Ring:           desc,
			ProbeInterval:  time.Second,
			SuspectAfter:   3,
			SuspectTimeout: 10 * time.Second,
			RepairInterval: 30 * time.Second,
			RepairThrottle: 10 * time.Millisecond,
			HintsDir:       n.dir + ".hints",
			Logger:         logger,
			Registry:       reg,
		})
		if err != nil {
			return err
		}
		cfg.Ring, cfg.Registry, cfg.Node = &desc, reg, n.agent
	}
	n.srv, err = dmfserver.New(cfg)
	if err != nil {
		return err
	}
	if n.agent != nil {
		n.agent.Start()
	}
	n.http = n.srv.HTTPServer(ln.Addr().String())
	if s.tr != nil {
		n.http.Handler = s.tr.timing(i, n.srv.Handler())
	}
	n.done = make(chan error, 1)
	go func() { n.done <- n.http.Serve(ln) }()
	return nil
}

// close stops everything boot started and removes what it wrote.
func (s *system) close() {
	if s.stream != nil {
		s.stream.close()
	}
	// The clients share http.DefaultTransport. Dropping its idle
	// connections first lets Shutdown return at once (it otherwise waits 5 s
	// for connections the transport dialled and never used) and starts the
	// next boot from none.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	for _, n := range s.nodes {
		if n.agent != nil {
			n.agent.Close()
		}
		if n.http != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			if err := n.http.Shutdown(ctx); err != nil {
				_ = n.http.Close()
			}
			cancel()
			<-n.done
		}
		if n.srv != nil {
			_ = n.srv.Close()
		}
	}
	_ = os.RemoveAll(s.root)
}

// --- executing ops -----------------------------------------------------

// do runs one op against the booted system. aux is the analyse half of a
// study iteration in milliseconds, 0 otherwise. A reply that does not match
// what the harness sent or preloaded is an error.
func (s *system) do(ctx context.Context, o op, due time.Time, parent *span) (aux float64, err error) {
	ctx = withSpan(ctx, parent)
	switch o.kind {
	case opSave:
		return 0, s.save(ctx, o)
	case opGet:
		ks := s.in.ks
		t, err := s.target.GetTrialContext(ctx, benchApp, ks.experiment(o.key), ks.trialName(o.key))
		if err != nil {
			return 0, err
		}
		return 0, ks.spotCheck(t, o.key)
	case opList:
		ks := s.in.ks
		names, err := s.target.ListTrials(benchApp, fmt.Sprintf("exp-%02d", o.key))
		if err != nil {
			return 0, err
		}
		// Key k lives in experiment k mod exps, so the first name of
		// experiment e is that of key e.
		if want := ks.keys / ks.experiments; len(names) != want || names[0] != ks.trialName(o.key) {
			return 0, fmt.Errorf("list exp-%02d: %d names, want %d starting %q", o.key, len(names), want, ks.trialName(o.key))
		}
		return 0, nil
	case opDiagnose:
		i := o.key % len(s.in.diag)
		c := s.in.diag[i]
		resp, err := s.client.DiagnoseContext(ctx, dmfwire.DiagnoseRequest{Script: c.script, Args: c.args})
		if err != nil {
			return 0, err
		}
		s.seenMu.Lock()
		defer s.seenMu.Unlock()
		seen := s.diagSeen[i]
		if seen[0] == nil {
			seen[0] = resp
		} else if resp.Stdout != seen[0].Stdout || len(resp.Recommendations) != len(seen[0].Recommendations) {
			return 0, fmt.Errorf("diagnose %s %v: response changed between calls", c.script, c.args)
		}
		seen[1] = resp
		s.diagSeen[i] = seen
		return 0, nil
	case opAnalyze:
		i := o.key % len(s.in.ana)
		resp, err := s.client.AnalyzeContext(ctx, s.in.ana[i])
		if err != nil {
			return 0, err
		}
		s.seenMu.Lock()
		defer s.seenMu.Unlock()
		seen := s.anaSeen[i]
		if seen[0] == nil {
			seen[0] = resp
		} else if !sameAnalyzeShape(resp, seen[0]) {
			return 0, fmt.Errorf("analyze %s %s: response changed between calls", s.in.ana[i].Op, s.in.ana[i].Trial)
		}
		seen[1] = resp
		s.anaSeen[i] = seen
		return 0, nil
	case opAppend:
		return 0, s.stream.append(ctx, due)
	case opStudy:
		return s.study(parent)
	}
	return 0, fmt.Errorf("unknown op kind %d", o.kind)
}

func (s *system) save(ctx context.Context, o op) error {
	st := &s.keys[o.key]
	st.mu.Lock()
	if st.inflight == 0 {
		st.group = 0
	}
	st.inflight++
	st.group |= 1 << uint(o.variant)
	st.mu.Unlock()
	err := s.target.SaveContext(ctx, s.in.ks.trial(o.key, o.variant))
	st.mu.Lock()
	st.inflight--
	if err != nil {
		st.cands |= st.group // the write may or may not have landed
	} else if st.inflight == 0 {
		st.cands = st.group
	}
	st.mu.Unlock()
	return err
}

// spotCheck is the cheap per-reply payload check: coordinates, shape, and
// a few cells against the variant the reply says it is. The post-run
// oracle compares whole trials.
func (ks *keyspace) spotCheck(t *perfdmf.Trial, key int) error {
	v, ok := ks.variantOf(t)
	if !ok {
		return fmt.Errorf("get %s: bad variant metadata %q", ks.trialName(key), t.Metadata["variant"])
	}
	want := ks.variants[v]
	if t.Name != ks.trialName(key) || t.Experiment != ks.experiment(key) || len(t.Events) != len(want) {
		return fmt.Errorf("get %s: got %s/%s with %d events", ks.trialName(key), t.Experiment, t.Name, len(t.Events))
	}
	m := ks.shape.metrics[0]
	for _, i := range []int{0, len(want) / 2, len(want) - 1} {
		last := ks.shape.threads - 1
		if t.Events[i].Name != want[i].Name || t.Events[i].Exclusive[m][last] != want[i].Exclusive[m][last] {
			return fmt.Errorf("get %s: event %d differs from variant %d", ks.trialName(key), i, v)
		}
	}
	return nil
}

func sameAnalyzeShape(a, b *dmfwire.AnalyzeResponse) bool {
	if len(a.Stats) != len(b.Stats) || len(a.Events) != len(b.Events) || len(a.LoadBalance) != len(b.LoadBalance) ||
		a.Metric != b.Metric || (a.Trial == nil) != (b.Trial == nil) || (a.Clustering == nil) != (b.Clustering == nil) {
		return false
	}
	if len(a.Stats) > 0 && a.Stats[0] != b.Stats[0] {
		return false
	}
	if len(a.Events) > 0 && a.Events[0] != b.Events[0] {
		return false
	}
	return true
}

// --- study_pipeline ----------------------------------------------------

// studyScripts are the diagnoses one study iteration runs; each must end
// with at least one recommendation.
var studyScripts = []struct {
	script string
	onMSA  bool
}{
	{"stalls_per_cycle.pes", false},
	{"load_balance.pes", true},
	{"memory_analysis.pes", false},
}

// study is one iteration of the paper-figure path: simulate two trials,
// then store and diagnose them in process.
func (s *system) study(parent *span) (analyseMs float64, err error) {
	sp := s.tr.startChild(parent, "sim.simulate", nil)
	gen, err := simulateGenidlest(genidlest.Rib90(), genidlest.OpenMP, false)
	if err != nil {
		return 0, err
	}
	align, err := simulateMSA(s.in.seed, sim.Schedule{Kind: sim.StaticSched})
	if err != nil {
		return 0, err
	}
	s.tr.end(sp)

	sp = s.tr.startChild(parent, "core.analyse", nil)
	defer s.tr.end(sp)
	start := time.Now()
	if err := analyseStudy(gen, align, s.rulesDir); err != nil {
		return 0, err
	}
	s.lastStudy = [2]*perfdmf.Trial{gen, align}
	return float64(time.Since(start)) / float64(time.Millisecond), nil
}

// analyseStudy is the analyse half: save both trials into an in-memory
// repository and run the three diagnoses through core.Session.
func analyseStudy(gen, align *perfdmf.Trial, rulesDir string) error {
	repo := perfdmf.NewRepository()
	ctx := context.Background()
	for _, t := range []*perfdmf.Trial{gen, align} {
		if err := repo.SaveContext(ctx, t); err != nil {
			return err
		}
	}
	for _, sc := range studyScripts {
		t := gen
		if sc.onMSA {
			t = align
		}
		session := core.NewSession(repo)
		session.SetOutput(io.Discard)
		diagnosis.Install(session, rulesDir)
		diagnosis.SetArgs(session, []string{t.App, t.Experiment, t.Name})
		if err := session.RunScript(diagnosis.ScriptFiles()[sc.script]); err != nil {
			return fmt.Errorf("study %s: %w", sc.script, err)
		}
		if res := session.LastResult(); res == nil || len(res.Recommendations) == 0 {
			return fmt.Errorf("study %s on %s: no recommendation", sc.script, t.Name)
		}
	}
	return nil
}

// --- the live stream of diagnose_live ----------------------------------

// alertSample is one delivered alert: when its chunk was due and how long
// after that the subscriber had it.
type alertSample struct {
	due time.Time
	ms  float64
}

// liveStream is the one long-lived stream. Appends carry dense sequence
// numbers, so they are serialized here, as one instrumented job would.
type liveStream struct {
	sys *system

	mu      sync.Mutex // serializes append/seal/open
	id      string
	next    int // next chunk of the cycle
	sub     *dmfclient.AlertSubscription
	subDone chan struct{}
	acked   int64 // alerts the last ack says the current stream has produced

	amu     sync.Mutex // guards the fields the subscriber goroutine writes
	dues    map[int64]time.Time
	alerts  []alertSample
	cycles  [][]dmfwire.StreamAlert // alerts received, per stream opened
	sent    []int                   // chunks sent on each sealed stream
	appends int
}

func (ls *liveStream) open(ctx context.Context) error {
	c := ls.sys.client
	info, err := c.OpenStream(ctx, benchApp, "streams", streamTrial, streamThreads,
		[]string{perfdmf.TimeMetric}, dmfclient.WithStandingRules(streamRules), dmfclient.WithStreamWindow(streamWindow))
	if err != nil {
		return err
	}
	// The subscription outlives the op that opened it.
	sub, err := c.SubscribeAlerts(context.Background(), info.ID, dmfclient.WithAlertBuffer(256))
	if err != nil {
		return err
	}
	ls.amu.Lock()
	ls.cycles = append(ls.cycles, nil)
	cycle := len(ls.cycles) - 1
	ls.dues = make(map[int64]time.Time)
	ls.amu.Unlock()
	ls.id, ls.next, ls.sub, ls.acked = info.ID, 0, sub, 0
	ls.subDone = make(chan struct{})
	go func(done chan struct{}) {
		defer close(done)
		for a := range sub.Alerts() {
			now := time.Now()
			ls.amu.Lock()
			if due, ok := ls.dues[a.Seq]; ok {
				ls.alerts = append(ls.alerts, alertSample{due: due, ms: float64(now.Sub(due)) / float64(time.Millisecond)})
			}
			a.Stream = ""
			ls.cycles[cycle] = append(ls.cycles[cycle], a)
			ls.amu.Unlock()
		}
	}(ls.subDone)
	return nil
}

func (ls *liveStream) append(ctx context.Context, due time.Time) error {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	seq := int64(ls.next + 1)
	ls.amu.Lock()
	ls.dues[seq] = due
	ls.amu.Unlock()
	ack, err := ls.sys.client.Append(ctx, ls.id, seq, ls.sys.in.cycle[ls.next])
	if err != nil {
		return err
	}
	ls.acked = ack.Alerts
	ls.next++
	ls.amu.Lock()
	ls.appends++
	ls.amu.Unlock()
	if ls.next < chunksPerStream {
		return nil
	}
	return ls.sealAndReopen(ctx)
}

// sealAndReopen seals the full cycle into the stored trial, waits for the
// subscription to deliver the rest of its alerts, and opens the next cycle.
func (ls *liveStream) sealAndReopen(ctx context.Context) error {
	if _, err := ls.sys.client.Seal(ctx, ls.id); err != nil {
		return err
	}
	ls.amu.Lock()
	ls.sent = append(ls.sent, ls.next)
	ls.amu.Unlock()
	<-ls.subDone // the sealed event ends the subscription
	if err := ls.sub.Err(); err != nil {
		return err
	}
	return ls.open(ctx)
}

// settle waits until every alert the server says it produced has arrived.
func (ls *liveStream) settle() error {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ls.amu.Lock()
		got := int64(len(ls.cycles[len(ls.cycles)-1]))
		ls.amu.Unlock()
		if got >= ls.acked {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("stream %s: %d of %d alerts delivered", ls.id, got, ls.acked)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// close aborts the open stream, so the stored trial stays the last full
// cycle, and ends the subscription.
func (ls *liveStream) close() {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.sub == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ls.sys.client.AbortStream(ctx, ls.id); err != nil && !errors.Is(err, perfdmf.ErrNotFound) {
		fmt.Fprintf(os.Stderr, "dmfload: abort stream: %v\n", err)
	}
	ls.sub.Close()
	<-ls.subDone
	ls.sub = nil
}
