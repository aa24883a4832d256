package cluster

import (
	"fmt"
	"reflect"
	"testing"

	"perfknow/internal/dmfwire"
)

func testDesc() dmfwire.Ring {
	return dmfwire.Ring{
		Epoch:    1,
		Replicas: 2,
		VNodes:   64,
		Seed:     42,
		Peers: []string{
			"http://node-a:7360",
			"http://node-b:7360",
			"http://node-c:7360",
		},
	}
}

// TestRingPlacementGolden pins concrete placements of ring version 1, as
// recorded while this package compiled it: they hold the oracle the upgrade
// test seeds its repositories with (ownersV1) to the hash that releases
// before this one placed by. TestRingPlacementGoldenV2 pins the placement
// this build uses.
func TestRingPlacementGolden(t *testing.T) {
	cases := []struct {
		app, experiment string
		owners          []string
	}{
		{"sweep3d", "weak-scaling", []string{"http://node-a:7360", "http://node-c:7360"}},
		{"sweep3d", "strong-scaling", []string{"http://node-a:7360", "http://node-c:7360"}},
		{"gtc", "baseline", []string{"http://node-a:7360", "http://node-c:7360"}},
		{"flash", "io-study", []string{"http://node-a:7360", "http://node-c:7360"}},
		{"namd", "apoa1", []string{"http://node-b:7360", "http://node-a:7360"}},
		{"lammps", "rhodo", []string{"http://node-a:7360", "http://node-c:7360"}},
	}
	for _, tc := range cases {
		got := ownersV1(testDesc(), tc.app, tc.experiment)
		if !reflect.DeepEqual(got, tc.owners) {
			t.Errorf("ownersV1(%s, %s) = %v, want %v — the oracle is not ring version 1",
				tc.app, tc.experiment, got, tc.owners)
		}
	}
}

// TestRingDeterminismAcrossProcesses simulates two independent processes:
// two rings built from differently-ordered (but equal) descriptors must
// agree on every placement decision.
func TestRingDeterminismAcrossProcesses(t *testing.T) {
	a, err := NewRing(testDesc())
	if err != nil {
		t.Fatal(err)
	}
	shuffled := testDesc()
	shuffled.Peers = []string{
		"http://node-c:7360",
		"http://node-a:7360",
		"http://node-b:7360",
		"http://node-a:7360", // duplicate: canonicalization removes it
	}
	b, err := NewRing(shuffled)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		app := fmt.Sprintf("app-%d", i%37)
		exp := fmt.Sprintf("exp-%d", i)
		if got, want := b.Owners(app, exp), a.Owners(app, exp); !reflect.DeepEqual(got, want) {
			t.Fatalf("rings disagree on Owners(%s, %s): %v vs %v", app, exp, got, want)
		}
		if got, want := b.Preference(app, exp), a.Preference(app, exp); !reflect.DeepEqual(got, want) {
			t.Fatalf("rings disagree on Preference(%s, %s): %v vs %v", app, exp, got, want)
		}
	}
}

func TestRingOwnersDistinctPreferenceComplete(t *testing.T) {
	r, err := NewRing(testDesc())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		app, exp := fmt.Sprintf("a%d", i), fmt.Sprintf("e%d", i*7)
		owners := r.Owners(app, exp)
		if len(owners) != r.Replicas() {
			t.Fatalf("Owners(%s, %s) = %v, want %d owners", app, exp, owners, r.Replicas())
		}
		pref := r.Preference(app, exp)
		if len(pref) != len(r.Peers()) {
			t.Fatalf("Preference(%s, %s) = %v, want all %d peers", app, exp, pref, len(r.Peers()))
		}
		seen := map[string]bool{}
		for _, p := range pref {
			if seen[p] {
				t.Fatalf("Preference(%s, %s) repeats peer %s: %v", app, exp, p, pref)
			}
			seen[p] = true
		}
		// The owners are the preference list's prefix.
		if !reflect.DeepEqual(owners, pref[:r.Replicas()]) {
			t.Fatalf("owners %v are not the prefix of preference %v", owners, pref)
		}
		for _, o := range owners {
			if !r.IsOwner(o, app, exp) {
				t.Fatalf("IsOwner(%s) = false for a listed owner", o)
			}
		}
		for _, p := range pref[r.Replicas():] {
			if r.IsOwner(p, app, exp) {
				t.Fatalf("IsOwner(%s) = true for a non-owner", p)
			}
		}
	}
}

// TestRingSpreadsPrimaries checks the ring is not degenerate: over many
// keys every peer must be primary for a reasonable share. (Perfect balance
// is not expected at 64 vnodes; a peer owning nothing would be.)
func TestRingSpreadsPrimaries(t *testing.T) {
	r, err := NewRing(testDesc())
	if err != nil {
		t.Fatal(err)
	}
	const keys = 3000
	counts := map[string]int{}
	for i := 0; i < keys; i++ {
		counts[r.Owners(fmt.Sprintf("app%d", i%50), fmt.Sprintf("exp%d", i))[0]]++
	}
	for _, peer := range r.Peers() {
		if counts[peer] < keys/10 {
			t.Errorf("peer %s is primary for only %d/%d keys — ring is badly skewed", peer, counts[peer], keys)
		}
	}
}

func TestNewRingRejectsInvalidDescriptor(t *testing.T) {
	bad := testDesc()
	bad.Replicas = 5 // exceeds peer count
	if _, err := NewRing(bad); err == nil {
		t.Fatal("NewRing accepted replicas > peers")
	}
}
