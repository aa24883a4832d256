// Package cluster scales the perfdmfd profile service horizontally: a
// consistent-hash ring assigns the Application → Experiment → Trial
// namespace to a static set of peer daemons, a ShardedStore implements
// perfdmf.Store with client-side routing (replicated writes, read fan-out
// with fallback, union listings) so every session, CLI and analysis path
// works against a cluster unchanged, and an anti-entropy Rebalance pass
// copies misplaced or missing trials back onto their owners after
// membership changes or failures.
//
// Placement is keyed on the (application, experiment) coordinate — not the
// trial name — so all trials of one experiment colocate on the same R
// owners. That is the locality the analysis workloads want: scaling
// studies, differential diagnosis and clustering all walk the trials of a
// single experiment, and a client routing such a script talks to one
// replica set instead of scattering requests across the whole cluster.
//
// Placement per epoch is static (the dmfwire.Ring descriptor: peers,
// replication factor, vnodes, seed, epoch) and there is no consensus
// protocol: clients cross-check epochs before routing (see
// ShardedStore.VerifyRing). What is dynamic is liveness and propagation: a
// per-daemon Agent gossips a membership view (View) with SWIM-style
// failure detection (alive → suspect → dead), writes that cannot reach a
// dead owner leave durable hints (HintStore) replayed by a handoff loop,
// and a jittered in-daemon repair loop re-runs Rebalance over the live
// members to restore replication factor R after permanent node loss.
// Growing or shrinking the cluster is epoch+1 announced to any one member;
// gossip carries the new descriptor to the rest, and clients refresh their
// ring instead of hard-failing.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"

	"perfknow/internal/dmfwire"
)

// Ring is the compiled consistent-hash ring: dmfwire.Ring's static
// description turned into a sorted circle of virtual-node points that
// placement queries walk. Building it is deterministic — any two processes
// compiling the same descriptor place every key identically, which is what
// makes client-side routing coherent without coordination.
type Ring struct {
	desc dmfwire.Ring
	// points is the circle: each peer contributes desc.VNodes entries,
	// sorted by hash position.
	points []ringPoint
}

type ringPoint struct {
	hash uint64
	// peer indexes into desc.Peers.
	peer int
}

// NewRing validates and compiles a descriptor.
func NewRing(desc dmfwire.Ring) (*Ring, error) {
	desc = desc.Canonical()
	if err := desc.Validate(); err != nil {
		return nil, err
	}
	r := &Ring{
		desc:   desc,
		points: make([]ringPoint, 0, len(desc.Peers)*desc.VNodes),
	}
	for i, peer := range desc.Peers {
		for v := 0; v < desc.VNodes; v++ {
			r.points = append(r.points, ringPoint{
				hash: r.hash(fmt.Sprintf("node|%s|%d", peer, v)),
				peer: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Break (vanishingly unlikely) hash collisions by peer index so
		// the circle's order is still a pure function of the descriptor.
		return r.points[a].peer < r.points[b].peer
	})
	return r, nil
}

// hash places one label — a node point or a key, the same function for both
// — on the circle: 64-bit FNV-1a over the seed and the label, then the
// splitmix64 finalizer. FNV is stable across Go versions, architectures and
// processes, which the whole design rests on; raw, it avalanches poorly on
// short, near-identical labels (a one-character difference at the tail
// perturbs mostly low bits, so the sequentially named experiments of a
// scaling study clump onto one owner pair), and the multiply/xor-shift
// cascade spreads every input bit across the whole word. The function and its
// constants are the placement contract (%DMFRING2): never change them.
func (r *Ring) hash(label string) uint64 {
	f := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(r.desc.Seed >> (8 * i))
	}
	_, _ = f.Write(buf[:])
	_, _ = f.Write([]byte(label))
	h := f.Sum64()
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Descriptor returns the canonical descriptor this ring was compiled from.
func (r *Ring) Descriptor() dmfwire.Ring { return r.desc }

// Peers returns the cluster membership (canonical order).
func (r *Ring) Peers() []string {
	return append([]string(nil), r.desc.Peers...)
}

// Replicas returns the replication factor R.
func (r *Ring) Replicas() int { return r.desc.Replicas }

// keyHash places one (application, experiment) coordinate on the circle.
// The trial name is deliberately absent: a trial's siblings colocate.
func (r *Ring) keyHash(app, experiment string) uint64 {
	return r.hash("key|" + app + "\x00" + experiment)
}

// walk calls fn with peer indices in ring order starting at the key's
// position, visiting each distinct peer exactly once; fn returns false to
// stop early.
func (r *Ring) walk(app, experiment string, fn func(peer int) bool) {
	start := sort.Search(len(r.points), func(i int) bool {
		return r.points[i].hash >= r.keyHash(app, experiment)
	})
	seen := make([]bool, len(r.desc.Peers))
	remaining := len(r.desc.Peers)
	for i := 0; i < len(r.points) && remaining > 0; i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.peer] {
			continue
		}
		seen[p.peer] = true
		remaining--
		if !fn(p.peer) {
			return
		}
	}
}

// Owners returns the R distinct peers responsible for the coordinate, in
// preference order (the first owner is the primary).
func (r *Ring) Owners(app, experiment string) []string {
	owners := make([]string, 0, r.desc.Replicas)
	r.walk(app, experiment, func(peer int) bool {
		owners = append(owners, r.desc.Peers[peer])
		return len(owners) < r.desc.Replicas
	})
	return owners
}

// Preference returns every peer in ring order from the coordinate's
// position: the first Replicas entries are the owners, the rest are the
// fallback successors that writes re-route to and reads fall back to when
// owners are unreachable.
func (r *Ring) Preference(app, experiment string) []string {
	pref := make([]string, 0, len(r.desc.Peers))
	r.walk(app, experiment, func(peer int) bool {
		pref = append(pref, r.desc.Peers[peer])
		return true
	})
	return pref
}

// IsOwner reports whether peer is one of the coordinate's R owners.
func (r *Ring) IsOwner(peer, app, experiment string) bool {
	for _, o := range r.Owners(app, experiment) {
		if o == peer {
			return true
		}
	}
	return false
}
