package cluster

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"perfknow/internal/dmfwire"
)

func testDescV2() dmfwire.Ring {
	d := testDesc()
	d.Version = 2
	return d
}

// TestRingPlacementGoldenV2 pins concrete placements for a fixed descriptor.
// Client-side routing only works if every process — today's and next
// year's — places every key identically: FNV-1a and the mixer's constants
// are the placement contract, and drift here would strand data on wrong
// owners in every running cluster.
func TestRingPlacementGoldenV2(t *testing.T) {
	r, err := NewRing(testDescV2())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		app, experiment string
		owners          []string
	}{
		{"sweep3d", "weak-scaling", []string{"http://node-b:7360", "http://node-c:7360"}},
		{"sweep3d", "strong-scaling", []string{"http://node-c:7360", "http://node-a:7360"}},
		{"gtc", "baseline", []string{"http://node-c:7360", "http://node-a:7360"}},
		{"flash", "io-study", []string{"http://node-b:7360", "http://node-a:7360"}},
		{"namd", "apoa1", []string{"http://node-b:7360", "http://node-a:7360"}},
		{"lammps", "rhodo", []string{"http://node-a:7360", "http://node-c:7360"}},
	}
	for _, tc := range cases {
		got := r.Owners(tc.app, tc.experiment)
		if !reflect.DeepEqual(got, tc.owners) {
			t.Errorf("Owners(%s, %s) = %v, want %v — v2 placement drifted; this breaks running clusters",
				tc.app, tc.experiment, got, tc.owners)
		}
	}
}

// TestRingV2DispersesSequentialNames demonstrates (and pins) the weakness
// the v2 mixer fixes. Raw FNV-1a avalanches poorly on short names that
// differ only in a trailing counter — exactly the shape scaling studies
// produce ("np-001", "np-002", ...) — so under v1 every one of the 64
// sequential experiments of one app lands on the same owner pair, turning
// two peers into the hot spot for the whole study. Under v2 the finalizing
// mixer spreads them across all six ordered owner pairs with near-uniform
// primary shares.
func TestRingV2DispersesSequentialNames(t *testing.T) {
	const n = 64
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("np-%03d", i+1)
	}
	place := func(owners func(app, experiment string) []string) (pairs map[string]int, primaries map[string]int) {
		pairs, primaries = map[string]int{}, map[string]int{}
		for _, exp := range keys {
			o := owners("lu", exp)
			pairs[fmt.Sprint(o)]++
			primaries[o[0]]++
		}
		return pairs, primaries
	}

	// v1 (the retired hash, here through its test oracle): total clumping —
	// one pair owns the entire study.
	v1Pairs, _ := place(func(app, experiment string) []string { return ownersV1(testDesc(), app, experiment) })
	if len(v1Pairs) != 1 {
		t.Fatalf("v1 clumping changed: %d distinct owner pairs for %d sequential names, expected 1 (placement drift?)", len(v1Pairs), n)
	}

	// v2: every ordered pair in use, and no peer starved or overloaded as
	// primary. With 3 peers the fair share is n/3 ≈ 21; accept [n/6, n/2].
	r, err := NewRing(testDescV2())
	if err != nil {
		t.Fatal(err)
	}
	v2Pairs, v2Primaries := place(r.Owners)
	if len(v2Pairs) != 6 {
		t.Fatalf("v2 dispersion regressed: %d distinct owner pairs, want all 6: %v", len(v2Pairs), v2Pairs)
	}
	for peer, c := range v2Primaries {
		if c < n/6 || c > n/2 {
			t.Errorf("v2 primary share for %s is %d/%d, outside [%d, %d]", peer, c, n, n/6, n/2)
		}
	}
}

// TestRingV1PlacementIndependentOfV2: the unversioned descriptor compiles to
// the version 2 placement (Version 0 ≡ 2), Version 1 does not compile at
// all, and what version 1 placed — the oracle the upgrade test seeds with —
// is a different function, so that test moves data.
func TestRingV1PlacementIndependentOfV2(t *testing.T) {
	v0, err := NewRing(testDesc())
	if err != nil {
		t.Fatal(err)
	}
	v2, err := NewRing(testDescV2())
	if err != nil {
		t.Fatal(err)
	}
	d := testDesc()
	d.Version = 1
	if _, err := NewRing(d); !errors.Is(err, dmfwire.ErrRing) {
		t.Fatalf("NewRing(Version 1) = %v, want ErrRing", err)
	}
	diff := 0
	for i := 0; i < 200; i++ {
		app, exp := fmt.Sprintf("a%d", i%13), fmt.Sprintf("e%d", i)
		if !reflect.DeepEqual(v0.Owners(app, exp), v2.Owners(app, exp)) {
			t.Fatalf("Version 0 and 2 disagree on Owners(%s, %s)", app, exp)
		}
		if !reflect.DeepEqual(ownersV1(testDesc(), app, exp), v2.Owners(app, exp)) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("v2 placement is identical to v1 over 200 keys — the mixer is not being applied")
	}
}
