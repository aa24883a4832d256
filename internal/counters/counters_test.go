package counters

import (
	"testing"
)

func TestNamesAreUniqueAndComplete(t *testing.T) {
	seen := make(map[string]ID)
	for id := ID(0); id < NumIDs; id++ {
		name := id.Name()
		if name == "" {
			t.Fatalf("counter %d has empty name", id)
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("counter name %q used by both %d and %d", name, prev, id)
		}
		seen[name] = id
	}
	if len(seen) != int(NumIDs) {
		t.Fatalf("expected %d names, got %d", NumIDs, len(seen))
	}
}

func TestLookupRoundTrip(t *testing.T) {
	for id := ID(0); id < NumIDs; id++ {
		got, ok := Lookup(id.Name())
		if !ok {
			t.Fatalf("Lookup(%q) failed", id.Name())
		}
		if got != id {
			t.Fatalf("Lookup(%q) = %d, want %d", id.Name(), got, id)
		}
	}
	if _, ok := Lookup("NO_SUCH_COUNTER"); ok {
		t.Fatal("Lookup of unknown name succeeded")
	}
}

func TestUnknownIDName(t *testing.T) {
	if got := ID(-1).Name(); got != "UNKNOWN_COUNTER_-1" {
		t.Fatalf("ID(-1).Name() = %q", got)
	}
	if got := NumIDs.Name(); got == "" {
		t.Fatal("out-of-range ID produced empty name")
	}
}

func TestNamesOrder(t *testing.T) {
	names := Names()
	if len(names) != int(NumIDs) {
		t.Fatalf("Names() returned %d entries, want %d", len(names), NumIDs)
	}
	if names[Cycles] != "CPU_CYCLES" {
		t.Fatalf("names[Cycles] = %q", names[Cycles])
	}
	if names[StallAll] != "BACK_END_BUBBLE_ALL" {
		t.Fatalf("names[StallAll] = %q", names[StallAll])
	}
}

func TestStallComponentsDistinctAndNotAll(t *testing.T) {
	comp := StallComponents()
	if len(comp) != 7 {
		t.Fatalf("expected 7 stall components (Jarp's formula), got %d", len(comp))
	}
	seen := map[ID]bool{}
	for _, id := range comp {
		if id == StallAll {
			t.Fatal("StallAll must not be its own component")
		}
		if seen[id] {
			t.Fatalf("duplicate stall component %v", id)
		}
		seen[id] = true
	}
}

func TestSetAdd(t *testing.T) {
	var a, b Set
	a.Inc(Cycles, 100)
	a.Inc(FPOps, 7)
	b.Inc(Cycles, 40)
	b.Inc(Loads, 3)

	a.Add(&b)
	if a.Get(Cycles) != 140 || a.Get(FPOps) != 7 || a.Get(Loads) != 3 {
		t.Fatalf("Add produced %v", a)
	}
}
