package cluster

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"perfknow/internal/dmfwire"
	"perfknow/internal/perfdmf"
)

// fakeBackend is an in-memory peer with a kill switch, standing in for a
// perfdmfd daemon in routing unit tests. (The chaos test exercises real
// daemons over HTTP.)
type fakeBackend struct {
	mu     sync.Mutex
	trials map[string]*perfdmf.Trial // key: app\x00exp\x00trial
	down   bool
	saves  int
	ring   *dmfwire.Ring // served by ClusterRing when set
}

var errPeerDown = errors.New("connection refused")

func newFakeBackend() *fakeBackend {
	return &fakeBackend{trials: make(map[string]*perfdmf.Trial)}
}

func fkey(app, experiment, trial string) string {
	return app + "\x00" + experiment + "\x00" + trial
}

func (f *fakeBackend) setDown(down bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.down = down
}

func (f *fakeBackend) saveCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.saves
}

func (f *fakeBackend) has(app, experiment, trial string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, ok := f.trials[fkey(app, experiment, trial)]
	return ok
}

func (f *fakeBackend) SaveContext(_ context.Context, t *perfdmf.Trial) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down {
		return errPeerDown
	}
	f.saves++
	f.trials[fkey(t.App, t.Experiment, t.Name)] = t.Clone()
	return nil
}

func (f *fakeBackend) GetTrialContext(_ context.Context, app, experiment, trial string) (*perfdmf.Trial, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down {
		return nil, errPeerDown
	}
	t, ok := f.trials[fkey(app, experiment, trial)]
	if !ok {
		return nil, fmt.Errorf("trial %s/%s/%s: %w", app, experiment, trial, perfdmf.ErrNotFound)
	}
	return t.Clone(), nil
}

func (f *fakeBackend) DeleteContext(_ context.Context, app, experiment, trial string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down {
		return errPeerDown
	}
	delete(f.trials, fkey(app, experiment, trial))
	return nil
}

func (f *fakeBackend) list(pick func(app, exp, trial string) (string, bool)) ([]string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down {
		return nil, errPeerDown
	}
	seen := map[string]bool{}
	var out []string
	for _, t := range f.trials {
		if name, ok := pick(t.App, t.Experiment, t.Name); ok && !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}

func (f *fakeBackend) ListApplications() ([]string, error) {
	return f.list(func(app, _, _ string) (string, bool) { return app, true })
}

func (f *fakeBackend) ListExperiments(app string) ([]string, error) {
	return f.list(func(a, exp, _ string) (string, bool) { return exp, a == app })
}

func (f *fakeBackend) ListTrials(app, experiment string) ([]string, error) {
	return f.list(func(a, e, trial string) (string, bool) { return trial, a == app && e == experiment })
}

func (f *fakeBackend) ClusterRing(context.Context) (*dmfwire.Ring, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down {
		return nil, errPeerDown
	}
	if f.ring == nil {
		return nil, fmt.Errorf("cluster ring: %w", perfdmf.ErrNotFound)
	}
	cp := *f.ring
	return &cp, nil
}

// newTestCluster builds a ShardedStore over fresh fake peers.
func newTestCluster(t *testing.T, desc dmfwire.Ring) (*ShardedStore, map[string]*fakeBackend) {
	t.Helper()
	fakes := make(map[string]*fakeBackend, len(desc.Peers))
	backends := make(map[string]Backend, len(desc.Peers))
	for _, p := range desc.Peers {
		fb := newFakeBackend()
		fakes[p] = fb
		backends[p] = fb
	}
	s, err := New(desc, backends)
	if err != nil {
		t.Fatal(err)
	}
	return s, fakes
}

func trial(app, experiment, name string) *perfdmf.Trial {
	t := perfdmf.NewTrial(app, experiment, name, 2)
	t.AddMetric("TIME")
	e := t.EnsureEvent("main")
	e.SetValue("TIME", 0, 10, 4)
	e.SetValue("TIME", 1, 12, 5)
	return t
}

func TestSaveReplicatesToOwners(t *testing.T) {
	s, fakes := newTestCluster(t, testDesc())
	tr := trial("sweep3d", "weak-scaling", "np64")
	if err := s.SaveContext(context.Background(), tr); err != nil {
		t.Fatal(err)
	}
	owners := s.Ring().Owners(tr.App, tr.Experiment)
	for _, o := range owners {
		if !fakes[o].has(tr.App, tr.Experiment, tr.Name) {
			t.Errorf("owner %s is missing the trial after Save", o)
		}
	}
	for peer, fb := range fakes {
		if !s.Ring().IsOwner(peer, tr.App, tr.Experiment) && fb.has(tr.App, tr.Experiment, tr.Name) {
			t.Errorf("non-owner %s received a copy", peer)
		}
	}
	if got := s.Registry().Counter("cluster_writes_total").Value(); got != 1 {
		t.Errorf("cluster_writes_total = %d, want 1", got)
	}
	if got := s.Registry().Counter("cluster_write_replicas_total").Value(); got != 2 {
		t.Errorf("cluster_write_replicas_total = %d, want 2", got)
	}
}

func TestSaveReroutesAroundDeadOwner(t *testing.T) {
	s, fakes := newTestCluster(t, testDesc())
	tr := trial("sweep3d", "weak-scaling", "np64")
	pref := s.Ring().Preference(tr.App, tr.Experiment)
	fakes[pref[0]].setDown(true) // primary owner dies

	if err := s.SaveContext(context.Background(), tr); err != nil {
		t.Fatal(err)
	}
	// The surviving owner and the first successor both hold a copy: still
	// R=2 replicas, just not on the nominal owner set.
	for _, p := range pref[1:] {
		if !fakes[p].has(tr.App, tr.Experiment, tr.Name) {
			t.Errorf("peer %s should hold a re-routed copy", p)
		}
	}
	reg := s.Registry()
	if got := reg.Counter("cluster_writes_rerouted_total").Value(); got != 1 {
		t.Errorf("cluster_writes_rerouted_total = %d, want 1", got)
	}
	if got := reg.Counter("cluster_writes_underreplicated_total").Value(); got != 0 {
		t.Errorf("write reached R replicas, underreplicated counter = %d, want 0", got)
	}
	if got := reg.Counter("cluster_write_replicas_total").Value(); got != 2 {
		t.Errorf("cluster_write_replicas_total = %d, want 2", got)
	}
}

func TestSaveUnderReplicatedStillSucceeds(t *testing.T) {
	s, fakes := newTestCluster(t, testDesc())
	tr := trial("sweep3d", "weak-scaling", "np64")
	pref := s.Ring().Preference(tr.App, tr.Experiment)
	fakes[pref[0]].setDown(true)
	fakes[pref[2]].setDown(true) // only one peer survives

	if err := s.SaveContext(context.Background(), tr); err != nil {
		t.Fatalf("a single surviving replica should still accept the write: %v", err)
	}
	if !fakes[pref[1]].has(tr.App, tr.Experiment, tr.Name) {
		t.Fatal("surviving peer is missing the trial")
	}
	if got := s.Registry().Counter("cluster_writes_underreplicated_total").Value(); got != 1 {
		t.Errorf("cluster_writes_underreplicated_total = %d, want 1", got)
	}
}

func TestSaveFailsWhenAllPeersDown(t *testing.T) {
	s, fakes := newTestCluster(t, testDesc())
	for _, fb := range fakes {
		fb.setDown(true)
	}
	err := s.SaveContext(context.Background(), trial("sweep3d", "weak-scaling", "np64"))
	if err == nil {
		t.Fatal("Save succeeded with every peer down")
	}
	if !errors.Is(err, errPeerDown) {
		t.Fatalf("error should surface the peer failures: %v", err)
	}
}

func TestSaveRejectsInvalidTrial(t *testing.T) {
	s, fakes := newTestCluster(t, testDesc())
	if err := s.SaveContext(context.Background(), &perfdmf.Trial{}); err == nil {
		t.Fatal("Save accepted an invalid trial")
	}
	for peer, fb := range fakes {
		if fb.saveCount() != 0 {
			t.Errorf("invalid trial reached peer %s", peer)
		}
	}
}

func TestGetTrialReadsFromOwners(t *testing.T) {
	s, _ := newTestCluster(t, testDesc())
	tr := trial("gtc", "baseline", "run1")
	if err := s.SaveContext(context.Background(), tr); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetTrialContext(context.Background(), tr.App, tr.Experiment, tr.Name)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || got.App != tr.App {
		t.Fatalf("GetTrial = %+v, want %+v", got, tr)
	}
}

func TestGetTrialSurvivesDeadOwner(t *testing.T) {
	s, fakes := newTestCluster(t, testDesc())
	tr := trial("gtc", "baseline", "run1")
	if err := s.SaveContext(context.Background(), tr); err != nil {
		t.Fatal(err)
	}
	owners := s.Ring().Owners(tr.App, tr.Experiment)
	fakes[owners[0]].setDown(true)
	got, err := s.GetTrialContext(context.Background(), tr.App, tr.Experiment, tr.Name)
	if err != nil {
		t.Fatalf("read should survive one dead owner at R=2: %v", err)
	}
	if got.Name != tr.Name {
		t.Fatalf("GetTrial = %+v", got)
	}
}

func TestGetTrialFallsBackToReroutedCopy(t *testing.T) {
	s, fakes := newTestCluster(t, testDesc())
	tr := trial("gtc", "baseline", "run1")
	pref := s.Ring().Preference(tr.App, tr.Experiment)

	// Write while the primary owner is down: copies land on pref[1] and
	// the successor pref[2].
	fakes[pref[0]].setDown(true)
	if err := s.SaveContext(context.Background(), tr); err != nil {
		t.Fatal(err)
	}
	// Primary comes back empty; the other owner dies. Only the re-routed
	// copy on the non-owner successor survives.
	fakes[pref[0]].setDown(false)
	fakes[pref[1]].setDown(true)

	got, err := s.GetTrialContext(context.Background(), tr.App, tr.Experiment, tr.Name)
	if err != nil {
		t.Fatalf("read should fall back to the re-routed copy: %v", err)
	}
	if got.Name != tr.Name {
		t.Fatalf("GetTrial = %+v", got)
	}
	if got := s.Registry().Counter("cluster_read_fallbacks_total").Value(); got != 1 {
		t.Errorf("cluster_read_fallbacks_total = %d, want 1", got)
	}
}

func TestGetTrialNotFound(t *testing.T) {
	s, _ := newTestCluster(t, testDesc())
	_, err := s.GetTrialContext(context.Background(), "nope", "nope", "nope")
	if !errors.Is(err, perfdmf.ErrNotFound) {
		t.Fatalf("GetTrial on an absent trial = %v, want ErrNotFound", err)
	}
}

func TestGetTrialUnreachableIsNotNotFound(t *testing.T) {
	s, fakes := newTestCluster(t, testDesc())
	for _, fb := range fakes {
		fb.setDown(true)
	}
	_, err := s.GetTrialContext(context.Background(), "nope", "nope", "nope")
	if err == nil {
		t.Fatal("GetTrial succeeded with every peer down")
	}
	if errors.Is(err, perfdmf.ErrNotFound) {
		t.Fatalf("absence cannot be proven with peers down, yet err = %v", err)
	}
}

func TestDeleteRemovesEveryCopy(t *testing.T) {
	s, fakes := newTestCluster(t, testDesc())
	tr := trial("gtc", "baseline", "run1")
	pref := s.Ring().Preference(tr.App, tr.Experiment)
	// Create a misplaced copy via re-routing, then revive the owner.
	fakes[pref[0]].setDown(true)
	if err := s.SaveContext(context.Background(), tr); err != nil {
		t.Fatal(err)
	}
	fakes[pref[0]].setDown(false)
	if err := s.DeleteContext(context.Background(), tr.App, tr.Experiment, tr.Name); err != nil {
		t.Fatal(err)
	}
	for peer, fb := range fakes {
		if fb.has(tr.App, tr.Experiment, tr.Name) {
			t.Errorf("copy survived Delete on %s", peer)
		}
	}
	// Deleting an absent trial is idempotent.
	if err := s.DeleteContext(context.Background(), tr.App, tr.Experiment, tr.Name); err != nil {
		t.Fatalf("repeat delete should be a no-op: %v", err)
	}
}

func TestDeleteReportsUnreachablePeer(t *testing.T) {
	s, fakes := newTestCluster(t, testDesc())
	tr := trial("gtc", "baseline", "run1")
	if err := s.SaveContext(context.Background(), tr); err != nil {
		t.Fatal(err)
	}
	owners := s.Ring().Owners(tr.App, tr.Experiment)
	fakes[owners[0]].setDown(true)
	if err := s.DeleteContext(context.Background(), tr.App, tr.Experiment, tr.Name); err == nil {
		t.Fatal("Delete must fail while a copy may survive on an unreachable peer")
	}
}

func TestListingsUnionAcrossPeers(t *testing.T) {
	s, fakes := newTestCluster(t, testDesc())
	for i := 0; i < 12; i++ {
		tr := trial(fmt.Sprintf("app%d", i%3), fmt.Sprintf("exp%d", i%4), fmt.Sprintf("t%d", i))
		if err := s.SaveContext(context.Background(), tr); err != nil {
			t.Fatal(err)
		}
	}
	apps, err := s.ListApplications()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"app0", "app1", "app2"}; !reflect.DeepEqual(apps, want) {
		t.Fatalf("Applications = %v, want %v", apps, want)
	}
	// Listings survive one dead peer at R=2: the union over survivors is
	// still complete.
	for _, fb := range fakes {
		fb.setDown(true)
		if got, err := s.ListApplications(); err != nil || !reflect.DeepEqual(got, apps) {
			t.Fatalf("Applications with one peer down = %v, %v, want %v", got, err, apps)
		}
		fb.setDown(false)
	}
	exps, err := s.ListExperiments("app1")
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) == 0 {
		t.Fatal("ListExperiments returned nothing")
	}
	if _, err := s.ListTrials("app0", exps[0]); err != nil {
		t.Fatal(err)
	}
}

func TestListingsFailWhenAllPeersDown(t *testing.T) {
	s, fakes := newTestCluster(t, testDesc())
	for _, fb := range fakes {
		fb.setDown(true)
	}
	if _, err := s.ListApplications(); err == nil {
		t.Fatal("ListApplications succeeded with every peer down")
	}
}

func TestVerifyRing(t *testing.T) {
	desc := testDesc()
	s, fakes := newTestCluster(t, desc)
	canon := desc.Canonical()

	// No peer serves a ring (standalone daemons): verification passes
	// vacuously with zero confirmations.
	n, err := s.VerifyRing(context.Background())
	if err != nil || n != 0 {
		t.Fatalf("VerifyRing over standalone peers = (%d, %v), want (0, nil)", n, err)
	}

	for _, fb := range fakes {
		r := canon
		fb.ring = &r
	}
	n, err = s.VerifyRing(context.Background())
	if err != nil || n != 3 {
		t.Fatalf("VerifyRing = (%d, %v), want (3, nil)", n, err)
	}

	// One peer down: skipped, not fatal.
	fakes[canon.Peers[0]].setDown(true)
	n, err = s.VerifyRing(context.Background())
	if err != nil || n != 2 {
		t.Fatalf("VerifyRing with a dead peer = (%d, %v), want (2, nil)", n, err)
	}
	fakes[canon.Peers[0]].setDown(false)

	// A peer on a different epoch is a hard error: it would place keys
	// with a different ring.
	other := canon
	other.Epoch = canon.Epoch + 1
	fakes[canon.Peers[1]].ring = &other
	if _, err := s.VerifyRing(context.Background()); err == nil {
		t.Fatal("VerifyRing accepted a peer on a different epoch")
	}
}

func TestNewRequiresBackendPerPeer(t *testing.T) {
	desc := testDesc()
	backends := map[string]Backend{desc.Peers[0]: newFakeBackend()}
	if _, err := New(desc, backends); err == nil {
		t.Fatal("New accepted a backend map missing peers")
	}
}
