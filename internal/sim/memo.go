package sim

import "perfknow/internal/counters"

// An SPMD program runs the same kernels over the same data every iteration,
// so an engine keeps what it charged for a kernel and charges it again on the
// next execution instead of pricing it again. What a kernel costs depends on
// the kernel, on the node it runs on and on where the pages it references
// live; a kept charge is therefore used only while every region the kernel
// references still has the machine.Region.Epoch it had when the charge was
// priced — every page placed, so a first touch moves none, and no Place
// since. A kernel over a region with a page still unplaced is priced every
// time and never kept.

const (
	memoBits    = 11
	memoSlots   = 1 << memoBits // open-addressed index into the kept charges
	memoEntries = memoSlots / 2 // charges kept; the index stays at most half full
	memoBlock   = 16            // charges per allocation

	// A program whose kernels are all different (MSAP: one per sequence)
	// would pay for keeping each and never be paid back. After memoDry
	// lookups in a row that found nothing, only every memoSample-th new
	// kernel is kept, until one is found again: a program that starts
	// repeating itself late is back to keeping everything within two rounds.
	memoDry    = 128
	memoSample = 16
)

// charge is what one kernel cost on one node under one placement.
type charge struct {
	k      Kernel
	node   int
	epochs [len(Kernel{}.Refs)]uint64 // Epoch of each referenced region when priced; 0 where Refs[i] has none
	cyc    uint64
	delta  counters.Set
}

// chargeMemo is an engine's kept charges, found through a linearly probed
// index. It is bounded by starting over when full, which costs a program with
// more than memoEntries live kernels one pricing each per round and any other
// program nothing.
type chargeMemo struct {
	slots  [memoSlots]uint16 // 0 = empty, else 1 + position of the charge
	blocks [memoEntries / memoBlock]*[memoBlock]charge
	n      int // charges kept; position p is blocks[p/memoBlock][p%memoBlock], so growing copies none
	dry    int // lookups that found nothing since the last that found one
}

// memoHash mixes the integer fields that tell a program's kernels apart.
// Kernels that differ only elsewhere share a probe sequence and are told
// apart by the comparison in lookup.
func memoHash(k *Kernel, node int) uint {
	const mul = 0x9E3779B97F4A7C15
	h := (uint64(node) ^ k.FPOps) * mul
	h = (h ^ k.IntOps) * mul
	for i := range k.Refs {
		r := &k.Refs[i]
		h = (h ^ uint64(r.Off)) * mul
		h = (h ^ uint64(r.Len)) * mul
		h = (h ^ r.Loads) * mul
	}
	return uint(h >> (64 - memoBits))
}

func (m *chargeMemo) at(p int) *charge { return &m.blocks[p/memoBlock][p%memoBlock] }

// lookup returns the charge kept for k on node. If there is none it adds
// one, reported as fresh: its kernel and node are set, the rest is for the
// caller to fill — or, while new kernels are only sampled, it returns nil.
// The pointer is good until the next lookup.
func (m *chargeMemo) lookup(k *Kernel, node int) (c *charge, fresh bool) {
	slot := memoHash(k, node)
	for ; m.slots[slot] != 0; slot = (slot + 1) % memoSlots {
		c := m.at(int(m.slots[slot]) - 1)
		if c.node == node && c.k == *k {
			m.dry = 0
			return c, false
		}
	}
	m.dry++
	if m.dry > memoDry && m.dry%memoSample != 0 {
		return nil, false
	}
	if m.n == memoEntries {
		m.slots = [memoSlots]uint16{}
		m.n = 0
		slot = memoHash(k, node)
	}
	if m.blocks[m.n/memoBlock] == nil {
		m.blocks[m.n/memoBlock] = new([memoBlock]charge)
	}
	c = m.at(m.n)
	c.k, c.node = *k, node
	m.n++
	m.slots[slot] = uint16(m.n)
	return c, true
}
