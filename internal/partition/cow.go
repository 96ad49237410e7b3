package partition

import "slices"

// Copy-on-write cloning: the serving plane publishes an epoch snapshot
// per update wave, and a wave touches a handful of vertices — so a
// publish must not pay for what it did not touch. CloneCOW compiles the
// partition (one linear merge per fragment the last waves touched) and
// shares every fragment's immutable base with the clone, copying only
// the partition spine (master/owner/weight and the outer copies index).
//
// Sharing discipline (what keeps a shared structure immutable):
//
//   - A *compiledFragment value is never mutated after construction.
//     Mutators copy the adjacency of the vertices they touch into their
//     own fragment's overlay (thaw) and record arc changes there;
//     Compile builds a new base from base + overlay and swaps only its
//     own fragment's pointer, so a clone holding the old pointer is
//     untouched. A new base may share the ids, local and arcs arrays of
//     the one it was folded from; they are immutable.
//   - The per-vertex copies slices are shared between both sides after
//     a CloneCOW. The sticky copiesShared flag makes insertCopy and
//     removeCopy allocate a fresh slice instead of writing the shared
//     backing array (which may also be the flat loaders' arena): one
//     small allocation per changed vertex, paid only by partitions
//     that were COW-cloned.
//   - master/owner/weight are flat arrays written in place by mutators,
//     so they are memcpy'd at clone time (O(n) words, not O(arcs)).
func (p *Partition) CloneCOW() *Partition {
	p.Compile()
	q := &Partition{
		g:            p.g,
		frags:        make([]*Fragment, len(p.frags)),
		copies:       slices.Clone(p.copies),
		master:       slices.Clone(p.master),
		owner:        slices.Clone(p.owner),
		weight:       slices.Clone(p.weight),
		copiesShared: true,
	}
	p.copiesShared = true
	for i, f := range p.frags {
		q.frags[i] = freezeFragment(i, f.base.Load())
	}
	return q
}

// ShareStats compares p's fragments against prev's (typically the same
// partition in the previous epoch): fragments whose base is the same
// object are shared (zero marginal memory); the rest are owned and
// their approximate resident bytes, less what they still share with
// prev's fragment, are summed. prev == nil counts everything as owned
// — the full materialized size.
func (p *Partition) ShareStats(prev *Partition) (shared, owned int, ownedBytes int64) {
	for i, f := range p.frags {
		var pf *Fragment
		if prev != nil && i < len(prev.frags) {
			pf = prev.frags[i]
		}
		if pf != nil && f.base.Load() == pf.base.Load() {
			shared++
			continue
		}
		owned++
		ownedBytes += f.ApproxBytes(pf)
	}
	return shared, owned, ownedBytes
}

// ApproxBytes estimates the resident size of the fragment's base from
// its exact array lengths. The ids and local arrays, and the arc array,
// are not counted when they are the very arrays prev's base holds (a
// fold that did not change the vertex set, or the arc set, shares them).
// Used for the /metrics epoch memory accounting; not a heap measurement.
func (f *Fragment) ApproxBytes(prev *Fragment) int64 {
	c := f.base.Load()
	n := c.byteSize()
	if prev == nil {
		return n
	}
	pc := prev.base.Load()
	if len(c.local) > 0 && len(pc.local) > 0 && &c.local[0] == &pc.local[0] {
		n -= int64(len(c.ids)+len(c.local)) * 4
	}
	if len(c.arcs) > 0 && len(pc.arcs) > 0 && &c.arcs[0] == &pc.arcs[0] {
		n -= int64(len(c.arcs)) * 8
	}
	return n
}
