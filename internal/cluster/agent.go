package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"perfknow/internal/dmfwire"
	"perfknow/internal/obs"
)

// AgentPeer is what the Agent needs from one remote daemon: the Backend
// surface (for repair passes) plus the gossip exchange and raw-body trial
// replay (for hinted handoff). *dmfclient.Client satisfies it.
type AgentPeer interface {
	Backend
	Gossip(ctx context.Context, m dmfwire.Membership) (*dmfwire.Membership, error)
	SaveTrialBody(ctx context.Context, body []byte) error
}

// AgentConfig configures a daemon's cluster agent.
type AgentConfig struct {
	// Self is this daemon's base URL as it appears in the ring.
	Self string
	// Ring is the starting descriptor (from flags); gossip may replace it
	// with a newer epoch at any time.
	Ring dmfwire.Ring
	// SeedPeers are extra URLs to gossip with even when they are not (yet)
	// in the ring — how a new member finds a running cluster.
	SeedPeers []string
	// ProbeInterval is the gossip/probe cadence (default 1s).
	ProbeInterval time.Duration
	// SuspectAfter and SuspectTimeout tune the failure detector (see
	// ViewConfig).
	SuspectAfter   int
	SuspectTimeout time.Duration
	// RepairInterval is the anti-entropy cadence; 0 disables the repair
	// loop (handoff and gossip still run).
	RepairInterval time.Duration
	// RepairThrottle paces each pass (WithRepairThrottle).
	RepairThrottle time.Duration
	// HintsDir is the durable hint directory. It must NOT be inside the
	// trial repository (the repository walks every subdirectory).
	HintsDir string
	// Logger receives state transitions and repair reports (default: drop).
	Logger *slog.Logger
	// Registry receives the agent's cluster_* metrics (default: private).
	Registry *obs.Registry
}

// DefaultProbeInterval is the default gossip cadence.
const DefaultProbeInterval = time.Second

// Agent makes one perfdmfd daemon an active cluster member. It runs three
// loops:
//
//   - gossip: every ProbeInterval (jittered ±25%), exchange membership
//     views with one peer in round-robin order. A completed exchange is a
//     successful probe; a failed one counts toward suspicion. The exchange
//     also carries ring descriptors, so an epoch bump announced anywhere
//     reaches every member without restarts.
//   - handoff: replay durable hints to their owners as soon as the view
//     says they are alive again, deleting each record once the owner
//     acknowledges the trial.
//   - repair: every RepairInterval (jittered ±25%), the leader — the
//     lowest-URL alive member, so exactly one daemon does the work — runs
//     a throttled Rebalance over the ALIVE members only, with the
//     replication factor capped at their count. Placement over the live
//     sub-ring re-homes every trial a dead peer owned, so replication
//     factor R is restored without any operator action; when the peer
//     returns, the next pass (now over the full ring) converges placement
//     back.
//
// The agent is the daemon-side counterpart of the client-side
// ShardedStore: the store reacts to failures per-request (re-route, hint,
// refresh), the agent heals the cluster behind it.
type Agent struct {
	self  string
	view  *View
	hints *HintStore

	probeInterval  time.Duration
	repairInterval time.Duration
	repairThrottle time.Duration
	seeds          []string
	env            env
	logger         *slog.Logger
	reg            *obs.Registry

	mu       sync.Mutex
	peers    map[string]AgentPeer
	probeIdx int

	gossips         *obs.Counter
	gossipFailures  *obs.Counter
	refutations     *obs.Counter
	handoffReplayed *obs.Counter
	handoffFailures *obs.Counter
	repairPasses    *obs.Counter

	// stop is cancelled by Close; the loops and the tick they are running
	// watch it.
	stop   context.Context
	cancel context.CancelFunc
	loops  sync.WaitGroup
}

// NewAgent builds an agent (no goroutines yet; call Start).
func NewAgent(cfg AgentConfig) (*Agent, error) { return newAgent(cfg, productionEnv()) }

// newAgent is NewAgent over a given env.
func newAgent(cfg AgentConfig, e env) (*Agent, error) {
	view, err := newView(ViewConfig{
		Self:           cfg.Self,
		Ring:           cfg.Ring,
		SuspectAfter:   cfg.SuspectAfter,
		SuspectTimeout: cfg.SuspectTimeout,
	}, e.now)
	if err != nil {
		return nil, err
	}
	if cfg.HintsDir == "" {
		return nil, fmt.Errorf("cluster: agent needs a hints directory")
	}
	hints, err := OpenHintStore(e.fs, cfg.HintsDir)
	if err != nil {
		return nil, err
	}
	a := &Agent{
		self:           cfg.Self,
		view:           view,
		hints:          hints,
		probeInterval:  cfg.ProbeInterval,
		repairInterval: cfg.RepairInterval,
		repairThrottle: cfg.RepairThrottle,
		seeds:          append([]string(nil), cfg.SeedPeers...),
		env:            e,
		logger:         cfg.Logger,
		reg:            cfg.Registry,
		peers:          make(map[string]AgentPeer),
	}
	a.stop, a.cancel = context.WithCancel(context.Background())
	if a.probeInterval <= 0 {
		a.probeInterval = DefaultProbeInterval
	}
	if a.logger == nil {
		a.logger = slog.New(slog.DiscardHandler)
	}
	if a.reg == nil {
		a.reg = obs.NewRegistry()
	}
	a.gossips = a.reg.Counter("cluster_gossip_total")
	a.gossipFailures = a.reg.Counter("cluster_gossip_failures_total")
	a.refutations = a.reg.Counter("cluster_refutations_total")
	a.handoffReplayed = a.reg.Counter("cluster_handoff_replayed_total")
	a.handoffFailures = a.reg.Counter("cluster_handoff_failures_total")
	a.repairPasses = a.reg.Counter("cluster_repair_passes_total")
	a.reg.GaugeFunc("cluster_hints_pending", func() float64 { return float64(a.hints.Pending()) })
	a.reg.GaugeFunc("cluster_members_alive", func() float64 { al, _, _ := view.counts(); return float64(al) })
	a.reg.GaugeFunc("cluster_members_suspect", func() float64 { _, su, _ := view.counts(); return float64(su) })
	a.reg.GaugeFunc("cluster_members_dead", func() float64 { _, _, de := view.counts(); return float64(de) })
	return a, nil
}

// View exposes the failure detector (tests, server JSON view).
func (a *Agent) View() *View { return a.view }

// Hints exposes the hint store.
func (a *Agent) Hints() *HintStore { return a.hints }

// Ring returns the descriptor the agent currently holds — the dynamic
// answer for GET /api/v1/cluster.
func (a *Agent) Ring() dmfwire.Ring { return a.view.Ring() }

// GossipView renders the operator/CI JSON view including pending hints.
func (a *Agent) GossipView() dmfwire.GossipView {
	gv := a.view.GossipView()
	gv.HintsPending = a.hints.Pending()
	return gv
}

// HandleGossip is the server half of the exchange: merge what the caller
// sent, answer with our (possibly updated) view. The reply is how a
// suspected member refutes: its self-entry always says alive.
func (a *Agent) HandleGossip(m dmfwire.Membership) dmfwire.Membership {
	if a.selfRumored(m) {
		a.refutations.Inc()
	}
	if a.view.Merge(m) {
		a.logger.Info("cluster ring adopted via gossip", "epoch", a.view.Epoch(), "from", m.From)
	}
	return a.view.Snapshot()
}

// selfRumored reports whether the message claims we are suspect or dead.
func (a *Agent) selfRumored(m dmfwire.Membership) bool {
	for _, st := range m.Peers {
		if st.Peer == a.self && st.State != dmfwire.StateAlive {
			return true
		}
	}
	return false
}

// AcceptHint durably stores a handoff record (from an upload carrying
// Dmf-Hint-For).
func (a *Agent) AcceptHint(hint dmfwire.Hint) error { return a.hints.Put(hint) }

// AnnounceRing installs an operator-announced descriptor
// (POST /api/v1/cluster), reporting whether it was adopted. Only a strictly
// newer epoch is adopted; gossip then spreads it to every other member.
func (a *Agent) AnnounceRing(desc dmfwire.Ring) (bool, error) {
	canon := desc.Canonical()
	if err := canon.Validate(); err != nil {
		return false, err
	}
	adopted := a.view.AdoptRing(canon)
	if adopted {
		a.logger.Info("cluster ring adopted via announce", "epoch", canon.Epoch)
	}
	return adopted, nil
}

// Start launches the gossip/handoff loop and, when RepairInterval > 0,
// the repair loop.
func (a *Agent) Start() {
	a.loops.Add(1)
	go a.loop(a.probeInterval, a.gossipTick)
	if a.repairInterval > 0 {
		a.loops.Add(1)
		go a.loop(a.repairInterval, a.repairTick)
	}
}

// Close stops the loops and waits for them: a tick in flight sees its
// context cancelled and returns.
func (a *Agent) Close() {
	a.cancel()
	a.loops.Wait()
}

// loop runs tick every interval, jittered ±25% so a fleet started together
// does not probe (or repair) in lockstep. The tick runs on the loop itself,
// under the context Close cancels.
func (a *Agent) loop(interval time.Duration, tick func(context.Context)) {
	defer a.loops.Done()
	for {
		select {
		case <-a.stop.Done():
			return
		case <-a.env.after(a.jitter(interval)):
		}
		tick(a.stop)
	}
}

// jitter draws a wait from [3·interval/4, 5·interval/4).
func (a *Agent) jitter(interval time.Duration) time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	return interval*3/4 + time.Duration(a.env.rand.Int64N(max(int64(interval/2), 1)))
}

// peer returns (dialing and caching as needed) the connection to one peer.
func (a *Agent) peer(url string) (AgentPeer, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if p, ok := a.peers[url]; ok {
		return p, nil
	}
	p, err := a.env.dial(url)
	if err != nil {
		return nil, err
	}
	a.peers[url] = p
	return p, nil
}

// targets is who we gossip with: every ring peer except self, plus any
// seed not already in the ring, sorted for a stable round-robin.
func (a *Agent) targets() []string {
	in := map[string]bool{a.self: true}
	var out []string
	for _, p := range a.view.Ring().Peers {
		if !in[p] {
			in[p] = true
			out = append(out, p)
		}
	}
	for _, p := range a.seeds {
		if !in[p] {
			in[p] = true
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// gossipTick is one probe round: exchange with the next peer, advance the
// suspect→dead clock, and drain any deliverable hints.
func (a *Agent) gossipTick(ctx context.Context) {
	a.gossipOnce(ctx)
	for _, p := range a.view.Tick() {
		a.logger.Warn("cluster peer declared dead", "peer", p)
	}
	a.handoffOnce(ctx)
}

func (a *Agent) gossipOnce(ctx context.Context) {
	targets := a.targets()
	if len(targets) == 0 {
		return
	}
	a.mu.Lock()
	target := targets[a.probeIdx%len(targets)]
	a.probeIdx++
	a.mu.Unlock()

	a.gossips.Inc()
	peer, err := a.peer(target)
	if err == nil {
		var reply *dmfwire.Membership
		reply, err = peer.Gossip(ctx, a.view.Snapshot())
		if err == nil && reply != nil {
			a.view.ObserveSuccess(target)
			if a.view.Merge(*reply) {
				a.logger.Info("cluster ring adopted via gossip", "epoch", a.view.Epoch(), "from", target)
			}
			return
		}
	}
	a.gossipFailures.Inc()
	a.view.ObserveFailure(target)
}

// handoffOnce replays hints whose owners are alive again.
func (a *Agent) handoffOnce(ctx context.Context) {
	if a.hints.Pending() == 0 {
		return
	}
	hints, errs := a.hints.All()
	for _, err := range errs {
		a.logger.Warn("cluster hint unreadable", "err", err)
	}
	for _, hint := range hints {
		if err := ctx.Err(); err != nil {
			return
		}
		if a.view.State(hint.Owner) != dmfwire.StateAlive {
			continue
		}
		peer, err := a.peer(hint.Owner)
		if err == nil {
			err = peer.SaveTrialBody(ctx, hint.Body)
		}
		if err != nil {
			a.handoffFailures.Inc()
			a.logger.Warn("cluster hint replay failed", "owner", hint.Owner,
				"trial", hint.App+"/"+hint.Experiment+"/"+hint.Trial, "err", err)
			continue
		}
		if err := a.hints.Remove(hint); err != nil {
			a.logger.Warn("cluster hint remove failed", "err", err)
			continue
		}
		a.handoffReplayed.Inc()
		a.logger.Info("cluster hint delivered", "owner", hint.Owner,
			"trial", hint.App+"/"+hint.Experiment+"/"+hint.Trial)
	}
}

// repairTick runs one anti-entropy pass when this member is the repair
// leader: the lowest-URL alive member, so exactly one daemon spends the
// bandwidth. Repair places over the ALIVE members only, with R capped at
// their count — that is what restores full replication after permanent
// node loss with zero operator action.
func (a *Agent) repairTick(ctx context.Context) {
	alive := a.view.Alive()
	if len(alive) < 2 || alive[0] != a.self {
		return
	}
	desc := a.view.Ring()
	desc.Peers = alive
	if desc.Replicas > len(alive) {
		desc.Replicas = len(alive)
	}
	backends := make(map[string]Backend, len(alive))
	for _, p := range alive {
		peer, err := a.peer(p)
		if err != nil {
			a.logger.Warn("cluster repair skipped: peer not dialable", "peer", p, "err", err)
			return
		}
		backends[p] = peer
	}
	store, err := New(desc, backends, WithRegistry(a.reg), WithRepairThrottle(a.repairThrottle))
	if err != nil {
		a.logger.Warn("cluster repair skipped", "err", err)
		return
	}
	store.env = a.env
	a.repairPasses.Inc()
	rep, err := store.Rebalance(ctx)
	if err != nil {
		a.logger.Warn("cluster repair pass aborted", "err", err)
		return
	}
	if rep.Copied > 0 || rep.Removed > 0 || len(rep.Errors) > 0 {
		a.logger.Info("cluster repair pass",
			"epoch", rep.Epoch, "live_peers", len(alive),
			"scanned", rep.PeersScanned, "trials", rep.Trials,
			"copied", rep.Copied, "removed", rep.Removed, "errors", len(rep.Errors))
	}
}
