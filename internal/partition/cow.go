package partition

import "slices"

// Copy-on-write cloning: the serving plane publishes an epoch snapshot
// per update wave, and a wave touches a handful of vertices — so a
// publish must not pay for what it did not touch. CloneCOW compiles the
// partition (one linear merge per chunk the last waves touched) and
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
//     untouched. A new base shares the chunks and pages of the one it
//     was folded from that the overlay did not touch, and a re-packed
//     chunk may share its predecessor's ids and arcs; all immutable.
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

// ApproxBytes estimates the resident size of the fragment's base from its
// array lengths, less what prev's base (typically the previous epoch's)
// holds too: each page or chunk at the same position, and the id and arc
// arrays a re-packed chunk kept. Used for the /metrics epoch memory
// accounting; not a heap measurement.
func (f *Fragment) ApproxBytes(prev *Fragment) int64 {
	c, pc := f.base.Load(), noBase
	if prev != nil {
		pc = prev.base.Load()
	}
	n := int64(len(c.chunks))*12 + int64(len(c.pages))*24 // a pointer and an arc base, a page header
	if !sameArray(c.chunkOf, pc.chunkOf) {
		n += int64(len(c.chunkOf))
	}
	for p, page := range c.pages {
		if p >= len(pc.pages) || !sameArray(page, pc.pages[p]) {
			n += int64(len(page)) * 8
		}
	}
	for k, ch := range c.chunks {
		pch := noBase.chunks[0] // shares nothing
		if k < len(pc.chunks) {
			pch = pc.chunks[k]
		}
		if ch != pch {
			n += int64(len(ch.adjs))*48 + int64(len(ch.outAdj)+len(ch.inAdj)+len(ch.arcOff))*4
		}
		if ch != pch && !sameArray(ch.ids, pch.ids) {
			n += int64(len(ch.ids)) * 4
		}
		if ch != pch && !sameArray(ch.arcs, pch.arcs) {
			n += int64(len(ch.arcs)) * 8
		}
	}
	return n
}

// sameArray reports whether a and b are views of one backing array
// from the same first element.
func sameArray[T any](a, b []T) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }
