package cluster

import (
	"context"
	"fmt"
	"sort"

	"perfknow/internal/dmfwire"
	"perfknow/internal/obs"
	"perfknow/internal/perfdmf"
)

// coord identifies one trial cluster-wide.
type coord struct {
	app, experiment, trial string
}

func (c coord) String() string { return c.app + "/" + c.experiment + "/" + c.trial }

// Rebalance runs one anti-entropy pass over the cluster: it scans every
// reachable peer's listings, then for each trial copies it onto owners
// that are missing it (repairing under-replicated writes and re-routed
// copies stranded by a dead owner) and finally removes misplaced copies
// from non-owners — but only once every owner has been confirmed to hold
// the trial, so repair never reduces the number of live copies.
//
// The pass is conservative in the presence of failures: a peer whose
// listings are unreachable is skipped (PeersScanned < Peers) and, because
// an unscanned peer may hold copies the scan cannot see, no removals are
// performed at all in that case. Copies still proceed — adding replicas
// is always safe. Errors are collected into the report rather than
// aborting the pass; use RepairReport.Clean to decide whether the cluster
// converged. The gossip leader's repair loop (Agent) is what runs it.
func (s *ShardedStore) Rebalance(ctx context.Context) (*dmfwire.RepairReport, error) {
	s.repairScans.Inc()
	ring, backends := s.topo()
	desc := ring.Descriptor()
	rep := &dmfwire.RepairReport{
		Epoch: desc.Epoch,
		Peers: len(desc.Peers),
	}

	// Scan: which peers hold which trials. holders preserves canonical
	// peer order so the copy source below is deterministic.
	holders := make(map[coord][]string)
	for _, peer := range ring.Peers() {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		coords, err := scanPeer(backends[peer])
		if err != nil {
			rep.Errors = append(rep.Errors, fmt.Sprintf("scan %s: %v", peer, err))
			continue
		}
		rep.PeersScanned++
		for _, c := range coords {
			holders[c] = append(holders[c], peer)
		}
	}
	rep.Trials = len(holders)

	coords := make([]coord, 0, len(holders))
	for c := range holders {
		coords = append(coords, c)
	}
	sort.Slice(coords, func(i, j int) bool {
		a, b := coords[i], coords[j]
		if a.app != b.app {
			return a.app < b.app
		}
		if a.experiment != b.experiment {
			return a.experiment < b.experiment
		}
		return a.trial < b.trial
	})

	for i, c := range coords {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		// The throttle (WithRepairThrottle) paces background repair so a
		// large pass trickles along behind foreground traffic.
		if s.throttle > 0 && i > 0 {
			select {
			case <-s.env.after(s.throttle):
			case <-ctx.Done():
				return rep, ctx.Err()
			}
		}
		s.repairOne(ctx, ring, backends, c, holders[c], rep)
	}

	sort.Strings(rep.Copies)
	sort.Strings(rep.Removals)
	s.repairErrors.Add(int64(len(rep.Errors)))
	s.emit(ctx, obs.Event{
		Name: "cluster.rebalance",
		Attrs: map[string]string{
			"epoch":   fmt.Sprintf("%d", rep.Epoch),
			"scanned": fmt.Sprintf("%d/%d", rep.PeersScanned, rep.Peers),
			"trials":  fmt.Sprintf("%d", rep.Trials),
			"copied":  fmt.Sprintf("%d", rep.Copied),
			"removed": fmt.Sprintf("%d", rep.Removed),
			"errors":  fmt.Sprintf("%d", len(rep.Errors)),
		},
	})
	return rep, nil
}

// scanPeer lists every trial coordinate one peer holds.
func scanPeer(b Backend) ([]coord, error) {
	apps, err := b.ListApplications()
	if err != nil {
		return nil, err
	}
	var out []coord
	for _, app := range apps {
		exps, err := b.ListExperiments(app)
		if err != nil {
			return nil, err
		}
		for _, exp := range exps {
			trials, err := b.ListTrials(app, exp)
			if err != nil {
				return nil, err
			}
			for _, trial := range trials {
				out = append(out, coord{app: app, experiment: exp, trial: trial})
			}
		}
	}
	return out, nil
}

// repairOne converges one trial: copy to owners missing it, then — if the
// scan was complete and every owner holds it — delete misplaced copies.
func (s *ShardedStore) repairOne(ctx context.Context, ring *Ring, backends map[string]Backend, c coord, held []string, rep *dmfwire.RepairReport) {
	has := make(map[string]bool, len(held))
	for _, p := range held {
		has[p] = true
	}

	// Fetch from the first holder in the coordinate's preference order, so
	// two repair processes pick the same source; fall back through the
	// remaining holders if it fails mid-pass.
	var src *perfdmf.Trial
	load := func() (*perfdmf.Trial, error) {
		if src != nil {
			return src, nil
		}
		var lastErr error
		for _, p := range ring.Preference(c.app, c.experiment) {
			if !has[p] {
				continue
			}
			t, err := backends[p].GetTrialContext(ctx, c.app, c.experiment, c.trial)
			if err != nil {
				lastErr = fmt.Errorf("%s: %w", p, err)
				continue
			}
			src = t
			return src, nil
		}
		return nil, lastErr
	}

	owners := ring.Owners(c.app, c.experiment)
	ownersHold := true
	for _, owner := range owners {
		if has[owner] {
			continue
		}
		t, err := load()
		if err != nil {
			rep.Errors = append(rep.Errors, fmt.Sprintf("copy %s: read: %v", c, err))
			ownersHold = false
			break
		}
		if err := backends[owner].SaveContext(ctx, t); err != nil {
			rep.Errors = append(rep.Errors, fmt.Sprintf("copy %s -> %s: %v", c, owner, err))
			ownersHold = false
			continue
		}
		has[owner] = true
		rep.Copied++
		rep.Copies = append(rep.Copies, fmt.Sprintf("%s -> %s", c, owner))
		s.repairCopied.Inc()
	}

	// Remove misplaced copies only when it is provably safe: the scan saw
	// every peer (no invisible copies) and every owner holds the trial.
	if !ownersHold || rep.PeersScanned < rep.Peers {
		return
	}
	isOwner := make(map[string]bool, len(owners))
	for _, o := range owners {
		isOwner[o] = true
	}
	for _, p := range held {
		if isOwner[p] {
			continue
		}
		if err := backends[p].DeleteContext(ctx, c.app, c.experiment, c.trial); err != nil {
			rep.Errors = append(rep.Errors, fmt.Sprintf("remove %s x %s: %v", c, p, err))
			continue
		}
		rep.Removed++
		rep.Removals = append(rep.Removals, fmt.Sprintf("%s x %s", c, p))
		s.repairRemoved.Inc()
	}
}
