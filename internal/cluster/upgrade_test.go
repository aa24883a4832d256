package cluster

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"perfknow/internal/dmfwire"
	"perfknow/internal/perfdmf"
)

// ringHashV1 is the placement hash of ring version 1: raw 64-bit FNV-1a over
// the seed and the label, without the finalizing mixer. No build places by
// it any more; it lives on here to lay data out the way a cluster that was
// never migrated left it.
func ringHashV1(seed uint64, label string) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := range buf {
		buf[i] = byte(seed >> (8 * i))
	}
	_, _ = h.Write(buf[:])
	_, _ = h.Write([]byte(label))
	return h.Sum64()
}

// ownersV1 places a coordinate as a version 1 ring did: Ring's circle and
// walk over the other hash.
func ownersV1(desc dmfwire.Ring, app, experiment string) []string {
	desc = desc.Canonical()
	var points []ringPoint
	for i, peer := range desc.Peers {
		for v := 0; v < desc.VNodes; v++ {
			points = append(points, ringPoint{hash: ringHashV1(desc.Seed, fmt.Sprintf("node|%s|%d", peer, v)), peer: i})
		}
	}
	sort.Slice(points, func(a, b int) bool { return points[a].hash < points[b].hash })
	key := ringHashV1(desc.Seed, "key|"+app+"\x00"+experiment)
	start := sort.Search(len(points), func(i int) bool { return points[i].hash >= key })
	var owners []string
	seen := make(map[int]bool)
	for i := 0; len(owners) < desc.Replicas; i++ {
		if p := points[(start+i)%len(points)].peer; !seen[p] {
			seen[p] = true
			owners = append(owners, desc.Peers[p])
		}
	}
	return owners
}

// TestUpgradeFromRingV1WithoutMigration: members of this build come up over
// repositories whose trials sit where ring version 1 put them — the upgrade
// docs/CLUSTER.md says to migrate before, done without migrating. Nothing
// may be lost: every trial is readable at once, the leader's repair passes
// move each onto its version 2 owners, and on the way no trial is ever held
// by fewer peers than at the start.
func TestUpgradeFromRingV1WithoutMigration(t *testing.T) {
	c := newSimCluster(t, 4, 3, 2)
	s := c.store
	desc := s.Ring().Descriptor()

	// A scaling study's sequentially named experiments, two trials each,
	// stored on their version 1 owners.
	var trials []*perfdmf.Trial
	moves := 0
	for i := 1; i <= 24; i++ {
		exp := fmt.Sprintf("np-%03d", i)
		v1 := sortedCopy(ownersV1(desc, "lu", exp))
		if fmt.Sprint(v1) != fmt.Sprint(sortedCopy(s.Ring().Owners("lu", exp))) {
			moves++
		}
		for _, name := range []string{"base", "tuned"} {
			tr := trial("lu", exp, name)
			for _, owner := range v1 {
				if err := c.members[owner].repo.Save(tr); err != nil {
					t.Fatal(err)
				}
			}
			trials = append(trials, tr)
		}
	}
	if moves == 0 {
		t.Fatal("version 1 and 2 place all 24 experiments alike: the test moves nothing")
	}

	noneLost := func(when string) {
		t.Helper()
		for _, tr := range trials {
			if n := len(c.holders(tr)); n < desc.Replicas {
				t.Fatalf("%s: %s/%s/%s is held by %d peer(s), %d at the start", when, tr.App, tr.Experiment, tr.Name, n, desc.Replicas)
			}
		}
	}
	placed := func() bool {
		for _, tr := range trials {
			if fmt.Sprint(c.holders(tr)) != fmt.Sprint(sortedCopy(s.Ring().Owners(tr.App, tr.Experiment))) {
				return false
			}
		}
		return true
	}

	// Before any repair: a client routing by version 2 finds every trial,
	// on an owner both versions share or by walking past the owners.
	for _, want := range trials {
		got, err := s.GetTrialContext(context.Background(), want.App, want.Experiment, want.Name)
		if err != nil {
			t.Fatalf("read %s/%s/%s before repair: %v", want.App, want.Experiment, want.Name, err)
		}
		gotEnc, _ := perfdmf.EncodeTrial(got)
		wantEnc, _ := perfdmf.EncodeTrial(want)
		if !bytes.Equal(gotEnc, wantEnc) {
			t.Fatalf("trial %s/%s/%s read back different", want.App, want.Experiment, want.Name)
		}
	}
	if placed() {
		t.Fatal("trials sit on their version 2 owners before any repair")
	}

	// The leader is the lowest-URL alive member; the others' passes do
	// nothing. Copies are observed after every request a pass makes and
	// after each pass.
	for _, u := range c.urls[1:] {
		c.members[u].agent.repairTick(context.Background())
	}
	if placed() {
		t.Fatal("a member that is not the leader repaired")
	}
	for pass := 1; pass <= 3 && !placed(); pass++ {
		c.afterRequest = func() { noneLost(fmt.Sprintf("during pass %d", pass)) }
		c.members[c.urls[0]].agent.repairTick(context.Background())
		c.afterRequest = nil
	}
	if !placed() {
		t.Fatal("three repair passes did not put every trial on exactly its version 2 owners")
	}
	noneLost("after repair")
	for _, tr := range trials {
		if _, err := s.GetTrialContext(context.Background(), tr.App, tr.Experiment, tr.Name); err != nil {
			t.Fatalf("read %s/%s/%s after repair: %v", tr.App, tr.Experiment, tr.Name, err)
		}
	}
}

func sortedCopy(s []string) []string {
	out := append([]string(nil), s...)
	sort.Strings(out)
	return out
}
