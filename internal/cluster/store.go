package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"perfknow/internal/dmfclient"
	"perfknow/internal/dmfwire"
	"perfknow/internal/obs"
	"perfknow/internal/perfdmf"
)

// Backend is what the ShardedStore needs from one peer: the Store surface.
// *dmfclient.Client satisfies it; tests substitute in-process fakes.
type Backend = perfdmf.Store

// RingFetcher is the optional Backend extension for peers that can report
// the ring descriptor they currently hold (GET /api/v1/cluster);
// VerifyRing uses it to cross-check epochs and RefreshRing to adopt a
// newer one.
type RingFetcher interface {
	ClusterRing(ctx context.Context) (*dmfwire.Ring, error)
}

// HintedBackend is the optional Backend extension for peers that accept
// hinted writes: save the trial and also record a durable hint that it
// belongs to owner, so the peer's handoff loop delivers it once the owner
// is back. *dmfclient.Client implements it with the Dmf-Hint-For header.
type HintedBackend interface {
	SaveHintedContext(ctx context.Context, t *perfdmf.Trial, owner string) error
}

// ErrRingStale reports that this store's ring descriptor has an older
// epoch than what a cluster peer is serving — the membership moved on
// (rolling epoch bump) and the right reaction is RefreshRing + retry, not
// failure. errors.Is-match it against VerifyRing errors; EnsureRing does
// the refresh-and-retry automatically.
var ErrRingStale = errors.New("cluster: ring descriptor is stale")

// ShardedStore routes perfdmf.Store operations across a cluster of
// perfdmfd peers: writes replicate to the R ring owners of the trial's
// (application, experiment) coordinate — re-routing to ring successors
// when an owner is down — reads fan out over the owners with
// first-success-wins and fall back to the remaining peers on
// ErrNotFound or transport error, deletes reach every peer, and listings
// are the union of all reachable peers' listings (complete as long as no
// more than R-1 peers are down).
//
// ShardedStore implements perfdmf.Store, so it drops into core.NewSession
// and every other Store consumer unchanged: a PerfExplorer script routed
// through it reads and writes a cluster the way it would one repository.
//
// Routing, replication and repair are instrumented on the store's
// obs.Registry (share one with WithRegistry): cluster_reads_total,
// cluster_read_fallbacks_total, cluster_writes_total,
// cluster_write_replicas_total, cluster_writes_rerouted_total,
// cluster_writes_underreplicated_total, cluster_repair_*_total, and the
// cluster_replication_lag_ms histogram (first ack to last ack per write).
type ShardedStore struct {
	// mu guards the topology (ring + backends); every operation snapshots
	// both at entry via topo(), so one call routes consistently even while
	// AdoptRing swaps in a new epoch. The maps are never mutated in place —
	// AdoptRing builds a fresh one — so a snapshot stays valid forever.
	mu       sync.RWMutex
	ring     *Ring
	backends map[string]Backend

	// newBackend dials a connection for a peer that joins via AdoptRing.
	// Dial installs a dmfclient factory; explicit-backend stores may
	// install one with WithBackendFactory, or live without ring refresh.
	newBackend func(peer string) (Backend, error)

	// throttle is the pause between trial coordinates during Rebalance
	// (WithRepairThrottle), keeping background repair from starving
	// foreground traffic.
	throttle time.Duration

	// env is the clock, timer and fan-out (productionEnv unless a test or
	// the repairing agent installs its own).
	env env

	tracer *obs.Tracer
	reg    *obs.Registry

	reads          *obs.Counter
	readFallbacks  *obs.Counter
	writes         *obs.Counter
	writeReplicas  *obs.Counter
	writesRerouted *obs.Counter
	writesHinted   *obs.Counter
	writesUnder    *obs.Counter
	deletes        *obs.Counter
	repairScans    *obs.Counter
	repairCopied   *obs.Counter
	repairRemoved  *obs.Counter
	repairErrors   *obs.Counter
	ringRefreshes  *obs.Counter
	replLag        *obs.Histogram
}

var _ perfdmf.Store = (*ShardedStore)(nil)

// Option customizes a ShardedStore.
type Option func(*ShardedStore)

// WithRegistry shares a metrics registry with the store, folding the
// cluster_* counters into the embedder's metrics surface.
func WithRegistry(reg *obs.Registry) Option {
	return func(s *ShardedStore) { s.reg = reg }
}

// WithTracer installs the tracer that receives cluster events (partial
// listings, under-replicated writes) when a call's context carries none.
func WithTracer(tr *obs.Tracer) Option {
	return func(s *ShardedStore) { s.tracer = tr }
}

// WithBackendFactory installs the dialer AdoptRing uses for peers that
// join the ring after construction. Stores built with Dial get one
// automatically; explicit-backend stores (tests, embedders) need this
// before RefreshRing can adopt a descriptor naming new peers.
func WithBackendFactory(f func(peer string) (Backend, error)) Option {
	return func(s *ShardedStore) { s.newBackend = f }
}

// WithRepairThrottle makes Rebalance pause d between trial coordinates.
// The in-daemon repair loop sets it so a large anti-entropy pass trickles
// along behind foreground traffic instead of competing with it; zero (the
// default) runs flat out, which suits the operator-driven CLI pass.
func WithRepairThrottle(d time.Duration) Option {
	return func(s *ShardedStore) { s.throttle = d }
}

// New builds a ShardedStore over explicit backends: one per ring peer,
// keyed by the peer name used in the descriptor.
func New(desc dmfwire.Ring, backends map[string]Backend, opts ...Option) (*ShardedStore, error) {
	ring, err := NewRing(desc)
	if err != nil {
		return nil, err
	}
	s := &ShardedStore{ring: ring, backends: make(map[string]Backend, len(backends)), env: productionEnv()}
	for _, peer := range ring.Peers() {
		b, ok := backends[peer]
		if !ok || b == nil {
			return nil, fmt.Errorf("cluster: no backend for peer %s", peer)
		}
		s.backends[peer] = b
	}
	for _, o := range opts {
		o(s)
	}
	if s.reg == nil {
		s.reg = obs.NewRegistry()
	}
	s.reads = s.reg.Counter("cluster_reads_total")
	s.readFallbacks = s.reg.Counter("cluster_read_fallbacks_total")
	s.writes = s.reg.Counter("cluster_writes_total")
	s.writeReplicas = s.reg.Counter("cluster_write_replicas_total")
	s.writesRerouted = s.reg.Counter("cluster_writes_rerouted_total")
	s.writesHinted = s.reg.Counter("cluster_writes_hinted_total")
	s.writesUnder = s.reg.Counter("cluster_writes_underreplicated_total")
	s.deletes = s.reg.Counter("cluster_deletes_total")
	s.repairScans = s.reg.Counter("cluster_repair_scans_total")
	s.repairCopied = s.reg.Counter("cluster_repair_copied_total")
	s.repairRemoved = s.reg.Counter("cluster_repair_removed_total")
	s.repairErrors = s.reg.Counter("cluster_repair_errors_total")
	s.ringRefreshes = s.reg.Counter("cluster_ring_refreshes_total")
	s.replLag = s.reg.Histogram("cluster_replication_lag_ms", nil)
	return s, nil
}

// Dial builds a ShardedStore whose backends are dmfclient connections to
// the descriptor's peers (each peer URL must be a perfdmfd base URL).
// clientOpts apply to every connection — retry policy, timeouts, shared
// registry and tracer compose exactly as they do for a single client.
func Dial(desc dmfwire.Ring, clientOpts []dmfclient.Option, opts ...Option) (*ShardedStore, error) {
	desc = desc.Canonical()
	if err := desc.Validate(); err != nil {
		return nil, err
	}
	dial := func(peer string) (Backend, error) {
		c, err := dmfclient.New(peer, clientOpts...)
		if err != nil {
			return nil, fmt.Errorf("cluster: peer %s: %w", peer, err)
		}
		return c, nil
	}
	backends := make(map[string]Backend, len(desc.Peers))
	for _, peer := range desc.Peers {
		b, err := dial(peer)
		if err != nil {
			return nil, err
		}
		backends[peer] = b
	}
	return New(desc, backends, append([]Option{WithBackendFactory(dial)}, opts...)...)
}

// topo snapshots the current topology. Operations take one snapshot at
// entry and use it throughout, so routing decisions stay internally
// consistent even if AdoptRing installs a new epoch mid-call.
func (s *ShardedStore) topo() (*Ring, map[string]Backend) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ring, s.backends
}

// Ring returns the compiled placement ring currently in use.
func (s *ShardedStore) Ring() *Ring {
	ring, _ := s.topo()
	return ring
}

// Registry exposes the store's metrics registry (the one installed with
// WithRegistry, or the private default).
func (s *ShardedStore) Registry() *obs.Registry { return s.reg }

// Backend returns the backend for one peer (nil if the peer is not in the
// ring) — the per-node escape hatch for verification and operations
// tooling.
func (s *ShardedStore) Backend(peer string) Backend {
	_, backends := s.topo()
	return backends[peer]
}

// VerifyRing cross-checks the membership: it asks every reachable peer
// that can answer (RingFetcher backends, i.e. real daemons) for the
// descriptor it currently holds and distinguishes two failure shapes.
// A peer serving a HIGHER epoch means this store is simply behind a
// rolling membership change — the error wraps ErrRingStale and the remedy
// is RefreshRing (or EnsureRing, which retries once automatically). A peer
// serving a DIFFERENT descriptor at the SAME epoch is true
// misconfiguration — two processes would place keys differently under one
// epoch, which nothing can repair — and is a hard error. Peers serving an
// older epoch are skipped (gossip will catch them up), as are unreachable
// peers and standalone daemons (404); a peer whose answer does not decode
// (it wraps dmfwire.ErrRing) is a hard error. Verification is a best-effort
// misconfiguration guard, not a health check — unless NO peer confirms and
// at least one is behind, which means our epoch is ahead of the entire
// cluster (a -ring-epoch typo, or an announce that never happened) and
// placing data by it would misroute every key. It returns how many peers
// confirmed the descriptor.
func (s *ShardedStore) VerifyRing(ctx context.Context) (confirmed int, err error) {
	ring, backends := s.topo()
	desc := ring.Descriptor()
	want, err := dmfwire.EncodeRing(desc)
	if err != nil {
		return 0, err
	}
	behind := 0
	for _, peer := range ring.Peers() {
		rf, ok := backends[peer].(RingFetcher)
		if !ok {
			continue
		}
		got, err := rf.ClusterRing(ctx)
		if errors.Is(err, dmfwire.ErrRing) {
			// The peer answered, with a descriptor this build refuses (a
			// retired version, a failed checksum): it is up and places keys
			// some other way, which is not the same as being down.
			return confirmed, fmt.Errorf("cluster: peer %s: %w", peer, err)
		}
		if err != nil {
			// Down, or standalone daemon without a ring: skip.
			continue
		}
		enc, err := dmfwire.EncodeRing(*got)
		if err != nil {
			return confirmed, fmt.Errorf("cluster: peer %s serves an invalid ring: %w", peer, err)
		}
		switch {
		case got.Epoch > desc.Epoch:
			return confirmed, fmt.Errorf("%w: peer %s is at epoch %d, ours is %d (refresh and retry)",
				ErrRingStale, peer, got.Epoch, desc.Epoch)
		case got.Epoch < desc.Epoch:
			// The peer is behind; gossip (or its next exchange with us)
			// will catch it up. Not a confirmation, not a failure.
			behind++
			continue
		case string(enc) != string(want):
			return confirmed, fmt.Errorf("cluster: peer %s disagrees on the ring at equal epoch %d (seed/vnodes/peers divergence): members must share one descriptor",
				peer, desc.Epoch)
		}
		confirmed++
	}
	if confirmed == 0 && behind > 0 {
		return 0, fmt.Errorf("cluster: every reachable peer disagrees on the ring: %d peer(s) hold an epoch older than ours (%d) — check -ring-epoch, or announce the new descriptor to the cluster",
			behind, desc.Epoch)
	}
	return confirmed, nil
}

// RefreshRing polls every current peer for the descriptor it holds and
// adopts the one with the highest epoch, if that is newer than ours.
// Returns whether a newer descriptor was adopted. Unreachable peers are
// skipped; an error means a peer answered with a descriptor that does not
// decode, or a newer descriptor was found but could not be adopted (invalid,
// or it names peers no backend factory can dial).
func (s *ShardedStore) RefreshRing(ctx context.Context) (adopted bool, err error) {
	ring, backends := s.topo()
	best := ring.Descriptor()
	found := false
	for _, peer := range ring.Peers() {
		rf, ok := backends[peer].(RingFetcher)
		if !ok {
			continue
		}
		got, err := rf.ClusterRing(ctx)
		if errors.Is(err, dmfwire.ErrRing) {
			return false, fmt.Errorf("cluster: peer %s: %w", peer, err) // see VerifyRing
		}
		if err != nil || got == nil {
			continue
		}
		if got.Epoch > best.Epoch {
			best = *got
			found = true
		}
	}
	if !found {
		return false, nil
	}
	if err := s.AdoptRing(best); err != nil {
		return false, err
	}
	return true, nil
}

// EnsureRing is VerifyRing with the stale case handled: on ErrRingStale it
// refreshes the ring from the peers and verifies once more, so a client
// arriving mid-rolling-epoch-bump converges instead of failing. Any other
// error — including misconfiguration at equal epoch — passes through.
func (s *ShardedStore) EnsureRing(ctx context.Context) (confirmed int, err error) {
	confirmed, err = s.VerifyRing(ctx)
	if err == nil || !errors.Is(err, ErrRingStale) {
		return confirmed, err
	}
	if _, rerr := s.RefreshRing(ctx); rerr != nil {
		return confirmed, rerr
	}
	return s.VerifyRing(ctx)
}

// AdoptRing swaps in a newer descriptor: the ring is recompiled, backends
// for retained peers are kept (their connections, retries and metrics
// carry over), backends for new peers are dialed through the backend
// factory, and backends for departed peers are dropped. Adopting the
// current epoch with an identical descriptor is a no-op; a lower epoch, or
// a different descriptor at the same epoch, is an error.
func (s *ShardedStore) AdoptRing(desc dmfwire.Ring) error {
	ring, err := NewRing(desc)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.ring.Descriptor()
	if ring.Descriptor().Epoch <= cur.Epoch {
		want, err1 := dmfwire.EncodeRing(cur)
		got, err2 := dmfwire.EncodeRing(ring.Descriptor())
		if err1 == nil && err2 == nil && string(want) == string(got) {
			return nil // idempotent re-adoption of what we already hold
		}
		return fmt.Errorf("cluster: refusing to adopt epoch %d over current epoch %d: epochs must move forward",
			ring.Descriptor().Epoch, cur.Epoch)
	}
	backends := make(map[string]Backend, len(ring.Peers()))
	for _, peer := range ring.Peers() {
		if b, ok := s.backends[peer]; ok {
			backends[peer] = b
			continue
		}
		if s.newBackend == nil {
			return fmt.Errorf("cluster: adopting epoch %d requires dialing new peer %s, but no backend factory is installed",
				ring.Descriptor().Epoch, peer)
		}
		b, err := s.newBackend(peer)
		if err != nil {
			return err
		}
		backends[peer] = b
	}
	s.ring, s.backends = ring, backends
	s.ringRefreshes.Inc()
	return nil
}

// emit publishes a cluster event to the context's tracer or the store's
// own; without either it is dropped.
func (s *ShardedStore) emit(ctx context.Context, ev obs.Event) {
	tr := obs.TracerFrom(ctx)
	if tr == nil {
		tr = s.tracer
	}
	if tr != nil {
		tr.Emit(ev)
	}
}

// --- writes -----------------------------------------------------------

// SaveContext replicates the trial: it validates the trial once, then
// writes it to the R owners of its (application, experiment) coordinate
// concurrently. Each per-peer write is one dmfclient upload with its own
// idempotency key, so replays under that peer's retries stay exactly-once
// per replica. Owners that
// fail are re-routed to ring successors until R copies exist or peers run
// out; a re-routed write carries a hint naming the failed owner when the
// successor supports it (HintedBackend), so the owner's copy is restored
// by handoff the moment it returns instead of waiting for the next
// anti-entropy pass. The write succeeds if at least one replica
// acknowledged — the trial is durable somewhere the read path will find
// it — and under-replication is surfaced through
// cluster_writes_underreplicated_total and a
// "cluster.write_underreplicated" event for the repair loop to fix.
func (s *ShardedStore) SaveContext(ctx context.Context, t *perfdmf.Trial) error {
	if err := t.Validate(); err != nil {
		return err
	}
	s.writes.Inc()
	ring, backends := s.topo()
	pref := ring.Preference(t.App, t.Experiment)
	r := ring.Replicas()

	failed := make([]error, r)
	acked := make([]time.Time, r)
	s.env.fanout(ctx, r, func(ctx context.Context, i int) {
		if failed[i] = backends[pref[i]].SaveContext(ctx, t); failed[i] == nil {
			acked[i] = s.env.now()
		}
	}, nil)
	var (
		errs         []error
		failedOwners []string
		acks         []time.Time // when each replica acknowledged
	)
	for i, err := range failed {
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", pref[i], err))
			failedOwners = append(failedOwners, pref[i])
			continue
		}
		acks = append(acks, acked[i])
	}
	// Hint for failed owners in URL order so repeated re-routes of one
	// coordinate are deterministic.
	sort.Strings(failedOwners)
	// Re-route failed replica writes to ring successors, in preference
	// order, until the trial is fully replicated or peers run out. Each
	// successful re-route consumes one failed owner as its hint target.
	for _, peer := range pref[r:] {
		if len(acks) >= r {
			break
		}
		var err error
		hinted := false
		if hb, ok := backends[peer].(HintedBackend); ok && len(failedOwners) > 0 {
			err = hb.SaveHintedContext(ctx, t, failedOwners[0])
			hinted = err == nil
			if err != nil {
				// The hint is best-effort: a peer that stores trials but
				// not hints (a static, non-gossiping member) must still
				// take the re-routed copy — the data matters more than
				// the IOU, and anti-entropy repair covers delivery.
				err = backends[peer].SaveContext(ctx, t)
			}
		} else {
			err = backends[peer].SaveContext(ctx, t)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("%s (reroute): %w", peer, err))
			continue
		}
		if hinted {
			failedOwners = failedOwners[1:]
			s.writesHinted.Inc()
		}
		s.writesRerouted.Inc()
		acks = append(acks, s.env.now())
	}
	s.writeReplicas.Add(int64(len(acks)))
	if len(acks) == 0 {
		return fmt.Errorf("cluster: save %s/%s/%s failed on every peer: %w",
			t.App, t.Experiment, t.Name, errors.Join(errs...))
	}
	first, last := slices.MinFunc(acks, time.Time.Compare), slices.MaxFunc(acks, time.Time.Compare)
	s.replLag.Observe(float64(last.Sub(first)) / float64(time.Millisecond))
	if len(acks) < r {
		s.writesUnder.Inc()
		s.emit(ctx, obs.Event{
			Name: "cluster.write_underreplicated",
			Err:  errors.Join(errs...),
			Attrs: map[string]string{
				"trial":    t.App + "/" + t.Experiment + "/" + t.Name,
				"replicas": fmt.Sprintf("%d/%d", len(acks), r),
			},
		})
	}
	return nil
}

// --- reads ------------------------------------------------------------

// GetTrialContext reads one trial from the cluster. It fans the read out
// to the coordinate's R owners concurrently; the first successful response
// wins and the losers are cancelled. If every owner fails — not found or unreachable — the
// remaining peers are tried in ring order, because a write may have been
// re-routed past its owners while they were down. The read reports
// ErrNotFound only when every peer positively reported the trial absent;
// if any peer was unreachable the error says so instead, since absence
// could not be proven.
func (s *ShardedStore) GetTrialContext(ctx context.Context, app, experiment, trial string) (*perfdmf.Trial, error) {
	s.reads.Inc()
	ring, backends := s.topo()
	pref := ring.Preference(app, experiment)
	r := ring.Replicas()

	var (
		won      *perfdmf.Trial
		got      = make([]*perfdmf.Trial, r)
		gotErr   = make([]error, r)
		notFound int
		errs     []error
	)
	s.env.fanout(ctx, r, func(ctx context.Context, i int) {
		got[i], gotErr[i] = backends[pref[i]].GetTrialContext(ctx, app, experiment, trial)
	}, func(i int) bool {
		err := gotErr[i]
		switch {
		case err == nil:
			won = got[i]
			return false // the losers are cancelled
		case errors.Is(err, perfdmf.ErrNotFound):
			notFound++
		default:
			errs = append(errs, fmt.Errorf("%s: %w", pref[i], err))
		}
		return true
	})
	if won != nil {
		return won, nil
	}
	// Every owner failed: fall back to the remaining peers in ring order.
	for _, peer := range pref[r:] {
		t, err := backends[peer].GetTrialContext(ctx, app, experiment, trial)
		if err == nil {
			s.readFallbacks.Inc()
			return t, nil
		}
		if errors.Is(err, perfdmf.ErrNotFound) {
			notFound++
			continue
		}
		errs = append(errs, fmt.Errorf("%s: %w", peer, err))
	}
	if len(errs) == 0 {
		return nil, fmt.Errorf("cluster: trial %s/%s/%s on %d peer(s): %w",
			app, experiment, trial, notFound, perfdmf.ErrNotFound)
	}
	return nil, fmt.Errorf("cluster: trial %s/%s/%s unavailable (%d peer(s) unreachable): %w",
		app, experiment, trial, len(errs), errors.Join(errs...))
}

// --- deletes ----------------------------------------------------------

// DeleteContext removes the trial cluster-wide. It deletes from every
// peer, not just the owners: re-routed writes and ring changes can leave
// copies anywhere, and a delete that misses one would let the trial
// resurface at the next repair pass.
// Deleting an absent trial is not an error; an unreachable peer is,
// because its copy survives — the caller can retry, deletes are
// idempotent.
func (s *ShardedStore) DeleteContext(ctx context.Context, app, experiment, trial string) error {
	s.deletes.Inc()
	ring, backends := s.topo()
	peers := ring.Peers()
	errs := make([]error, len(peers))
	s.env.fanout(ctx, len(peers), func(ctx context.Context, i int) {
		if err := backends[peers[i]].DeleteContext(ctx, app, experiment, trial); err != nil {
			errs[i] = fmt.Errorf("%s: %w", peers[i], err)
		}
	}, nil)
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("cluster: delete %s/%s/%s incomplete: %w", app, experiment, trial, err)
	}
	return nil
}

// --- listings ---------------------------------------------------------

// fanListing unions one listing across all peers. It succeeds when at
// least one peer answers; with replication factor R the union over any
// N-(R-1) surviving peers is still complete, so a partial fan-out is a
// degraded-but-correct listing as long as no more than R-1 peers are
// down. Partial results are surfaced as "cluster.partial_listing" events.
func (s *ShardedStore) fanListing(ctx context.Context, what string, list func(Backend) ([]string, error)) ([]string, error) {
	ring, backends := s.topo()
	peers := ring.Peers()
	names := make([][]string, len(peers))
	listErr := make([]error, len(peers))
	s.env.fanout(ctx, len(peers), func(_ context.Context, i int) {
		names[i], listErr[i] = list(backends[peers[i]])
	}, nil)
	var union []string
	var errs []error
	ok := 0
	for i, err := range listErr {
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", peers[i], err))
			continue
		}
		ok++
		union = append(union, names[i]...)
	}
	if ok == 0 {
		return nil, fmt.Errorf("cluster: list %s failed on every peer: %w", what, errors.Join(errs...))
	}
	if len(errs) > 0 {
		s.emit(ctx, obs.Event{
			Name:  "cluster.partial_listing",
			Err:   errors.Join(errs...),
			Attrs: map[string]string{"listing": what, "peers_answered": fmt.Sprintf("%d/%d", ok, len(peers))},
		})
	}
	slices.Sort(union)
	return slices.Compact(union), nil
}

// ListApplications lists application names cluster-wide, with transport
// errors when no peer could answer.
func (s *ShardedStore) ListApplications() ([]string, error) {
	return s.fanListing(context.Background(), "applications", Backend.ListApplications)
}

// ListExperiments lists experiment names for an application cluster-wide.
func (s *ShardedStore) ListExperiments(app string) ([]string, error) {
	return s.fanListing(context.Background(), "experiments", func(b Backend) ([]string, error) {
		return b.ListExperiments(app)
	})
}

// ListTrials lists trial names for an (application, experiment) pair
// cluster-wide. With replication this usually needs only the owners, but
// the union over all peers also finds re-routed and misplaced copies, so
// listings agree with what GetTrialContext can actually fetch.
func (s *ShardedStore) ListTrials(app, experiment string) ([]string, error) {
	return s.fanListing(context.Background(), "trials", func(b Backend) ([]string, error) {
		return b.ListTrials(app, experiment)
	})
}
