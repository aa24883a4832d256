package cluster

import (
	"context"
	"testing"
)

func TestRebalanceNoopOnHealthyCluster(t *testing.T) {
	s, _ := newTestCluster(t, testDesc())
	for _, tr := range []struct{ app, exp, name string }{
		{"sweep3d", "weak-scaling", "np16"},
		{"sweep3d", "weak-scaling", "np64"},
		{"namd", "apoa1", "run1"},
	} {
		if err := s.SaveContext(context.Background(), trial(tr.app, tr.exp, tr.name)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := s.Rebalance(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("healthy cluster should produce a clean report: %+v", rep)
	}
	if rep.Trials != 3 || rep.Copied != 0 || rep.Removed != 0 {
		t.Fatalf("healthy cluster needed repair: %+v", rep)
	}
}

func TestRebalanceRepairsReroutedWrite(t *testing.T) {
	s, fakes := newTestCluster(t, testDesc())
	tr := trial("sweep3d", "weak-scaling", "np64")
	pref := s.Ring().Preference(tr.App, tr.Experiment)

	// Write with the primary owner dead: copies land on pref[1] (owner)
	// and pref[2] (re-routed, a non-owner).
	fakes[pref[0]].setDown(true)
	if err := s.SaveContext(context.Background(), tr); err != nil {
		t.Fatal(err)
	}
	fakes[pref[0]].setDown(false)

	rep, err := s.Rebalance(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("repair should complete cleanly: %+v", rep)
	}
	if rep.Copied != 1 || rep.Removed != 1 {
		t.Fatalf("repair = copied %d removed %d, want 1 and 1: %+v", rep.Copied, rep.Removed, rep)
	}
	// The owner set holds the trial; the misplaced copy is gone.
	if !fakes[pref[0]].has(tr.App, tr.Experiment, tr.Name) {
		t.Error("revived owner is still missing the trial after repair")
	}
	if !fakes[pref[1]].has(tr.App, tr.Experiment, tr.Name) {
		t.Error("surviving owner lost the trial")
	}
	if fakes[pref[2]].has(tr.App, tr.Experiment, tr.Name) {
		t.Error("misplaced copy survived repair")
	}
	reg := s.Registry()
	if got := reg.Counter("cluster_repair_copied_total").Value(); got != 1 {
		t.Errorf("cluster_repair_copied_total = %d, want 1", got)
	}
	if got := reg.Counter("cluster_repair_removed_total").Value(); got != 1 {
		t.Errorf("cluster_repair_removed_total = %d, want 1", got)
	}
	if got := reg.Counter("cluster_repair_scans_total").Value(); got != 1 {
		t.Errorf("cluster_repair_scans_total = %d, want 1", got)
	}

	// Convergence: a second pass finds nothing to do.
	rep, err = s.Rebalance(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Copied != 0 || rep.Removed != 0 || !rep.Clean() {
		t.Fatalf("second pass should be a no-op: %+v", rep)
	}
}

func TestRebalanceRepairsUnderReplication(t *testing.T) {
	s, fakes := newTestCluster(t, testDesc())
	tr := trial("sweep3d", "weak-scaling", "np64")
	pref := s.Ring().Preference(tr.App, tr.Experiment)

	// Only one peer survives the write: the trial is under-replicated.
	fakes[pref[0]].setDown(true)
	fakes[pref[2]].setDown(true)
	if err := s.SaveContext(context.Background(), tr); err != nil {
		t.Fatal(err)
	}
	fakes[pref[0]].setDown(false)
	fakes[pref[2]].setDown(false)

	rep, err := s.Rebalance(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.Copied != 1 {
		t.Fatalf("repair should restore the missing replica: %+v", rep)
	}
	for _, owner := range s.Ring().Owners(tr.App, tr.Experiment) {
		if !fakes[owner].has(tr.App, tr.Experiment, tr.Name) {
			t.Errorf("owner %s missing the trial after repair", owner)
		}
	}
}

// TestRebalanceHoldsRemovalsWhileAPeerIsUnscanned: removals need proof
// that every owner holds the trial, and an unscanned peer may hide
// copies, so a degraded scan repairs by copying only.
func TestRebalanceHoldsRemovalsWhileAPeerIsUnscanned(t *testing.T) {
	s, fakes := newTestCluster(t, testDesc())
	tr := trial("sweep3d", "weak-scaling", "np64")
	pref := s.Ring().Preference(tr.App, tr.Experiment)

	// Manufacture a misplaced copy.
	fakes[pref[0]].setDown(true)
	if err := s.SaveContext(context.Background(), tr); err != nil {
		t.Fatal(err)
	}
	fakes[pref[0]].setDown(false)
	// An unrelated peer is unreachable during the scan. pref[1] holds a
	// copy, so the scan still sees the trial.
	down := pref[0]
	fakes[down].setDown(true)

	rep, err := s.Rebalance(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatalf("a report with an unscanned peer must not be clean: %+v", rep)
	}
	if rep.PeersScanned != rep.Peers-1 {
		t.Fatalf("PeersScanned = %d, want %d", rep.PeersScanned, rep.Peers-1)
	}
	if rep.Removed != 0 {
		t.Fatalf("removals must be held while a peer is unscanned: %+v", rep)
	}
	if !fakes[pref[2]].has(tr.App, tr.Experiment, tr.Name) {
		t.Error("misplaced copy was removed despite the degraded scan")
	}

	// Once the peer is back, a full pass converges.
	fakes[down].setDown(false)
	rep, err = s.Rebalance(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.Removed != 1 {
		t.Fatalf("full pass should finish the repair: %+v", rep)
	}
}

func TestRebalanceRespectsContext(t *testing.T) {
	s, _ := newTestCluster(t, testDesc())
	if err := s.SaveContext(context.Background(), trial("a", "b", "c")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Rebalance(ctx); err == nil {
		t.Fatal("Rebalance ignored a cancelled context")
	}
}
