package partition

import (
	"fmt"
	"slices"

	"adp/internal/graph"
)

// BaseSnapshot is a deep copy of a compiled fragment's arrays, for the
// external tests that compare bases bit for bit. adjs is flattened to
// per-vertex list lengths: together with outAdj/inAdj that pins every
// header.
type BaseSnapshot struct {
	ids            []graph.VertexID
	local          []int32
	outLen, inLen  []int
	outAdj, inAdj  []graph.VertexID
	arcs           []uint64
	arcOff, recomp []int32 // recomp: arcOff as counted out of ids and arcs
}

// OverlayClone is Clone without the compile: a deep copy whose every
// fragment is an overlay over an empty base, the form a partition built
// by NewEmpty + AddArc is in. The tests use it as the never-compiled
// oracle the compiled form must agree with.
func OverlayClone(p *Partition) *Partition { return p.copyOut() }

// SnapshotBase copies f's base as one set of arrays, the chunks
// concatenated; f must be compiled. Two bases that hold the same
// fragment snapshot alike however they are chunked.
func SnapshotBase(f *Fragment) *BaseSnapshot {
	c := f.base.Load()
	s := &BaseSnapshot{local: c.flatLocal(len(c.pages) << pageBits)}
	for k, ch := range c.chunks {
		s.ids = append(s.ids, ch.ids...)
		s.outAdj = append(s.outAdj, ch.outAdj...)
		s.inAdj = append(s.inAdj, ch.inAdj...)
		s.arcs = append(s.arcs, ch.arcs...)
		for l, a := range ch.adjs {
			s.outLen = append(s.outLen, len(a.Out))
			s.inLen = append(s.inLen, len(a.In))
			s.arcOff = append(s.arcOff, c.arcBase[k]+ch.arcOff[l])
		}
	}
	s.arcOff = append(s.arcOff, int32(len(s.arcs)))
	// arcOff counted out of ids and arcs alone.
	a := 0
	for _, id := range s.ids {
		for a < len(s.arcs) && s.arcs[a]>>32 < uint64(id) {
			a++
		}
		s.recomp = append(s.recomp, int32(a))
	}
	s.recomp = append(s.recomp, int32(len(s.arcs)))
	return s
}

// Diff names the first array in which two snapshots differ, "" when
// they are identical.
func (s *BaseSnapshot) Diff(o *BaseSnapshot) string {
	switch {
	case !slices.Equal(s.ids, o.ids):
		return "ids"
	case !slices.Equal(s.local, o.local):
		return "local"
	case !slices.Equal(s.outLen, o.outLen) || !slices.Equal(s.inLen, o.inLen):
		return "adjs"
	case !slices.Equal(s.outAdj, o.outAdj):
		return "outAdj"
	case !slices.Equal(s.inAdj, o.inAdj):
		return "inAdj"
	case !slices.Equal(s.arcs, o.arcs):
		return "arcs"
	case !slices.Equal(s.arcOff, o.arcOff):
		return "arcOff"
	case !slices.Equal(s.arcOff, s.recomp):
		return "arcOff (vs the arc array)"
	}
	return ""
}

// CheckPacked verifies the chunk table of f's base: the chunks cover
// the vertex ids in ascending, contiguous ranges, each holding only ids
// of its range, ascending, and chunkOf names each id's chunk; every adjacency header points at its own
// run of the chunk's packed arrays, in local-id order with no gaps,
// and is what the pages give for its vertex (the pages give nil for
// every other id); each arc run is its vertex's sorted out-list; and
// the arc bases and totals add up.
func CheckPacked(f *Fragment) error {
	c := f.base.Load()
	var present []*Adj
	ids, arcs := 0, 0
	for k, ch := range c.chunks {
		if k > 0 && ch.lo <= c.chunks[k-1].lo || k == 0 && ch.lo != 0 || int(c.arcBase[k]) != arcs {
			return fmt.Errorf("fragment %d: chunk %d starts at id %d / arc %d", f.id, k, ch.lo, c.arcBase[k])
		}
		o, i := 0, 0
		for l, v := range ch.ids {
			a := &ch.adjs[l]
			if v < ch.lo || k+1 < len(c.chunks) && v >= c.chunks[k+1].lo || l > 0 && ch.ids[l-1] >= v {
				return fmt.Errorf("fragment %d: chunk %d holds vertex %d at %d outside its range or order", f.id, k, v, l)
			}
			if len(a.Out) > 0 && &a.Out[0] != &ch.outAdj[o] || len(a.In) > 0 && &a.In[0] != &ch.inAdj[i] {
				return fmt.Errorf("fragment %d: chunk %d: adjacency of local id %d is not packed at (%d,%d)", f.id, k, l, o, i)
			}
			if int(ch.arcOff[l]) != o || !slices.Equal(appendArcRun(nil, v, a.Out), ch.arcs[o:o+len(a.Out)]) {
				return fmt.Errorf("fragment %d: chunk %d: arc run of vertex %d is not its sorted out-list", f.id, k, v)
			}
			if int(v) >= len(present) {
				present = append(present, make([]*Adj, int(v)+1-len(present))...)
			}
			present[v] = a
			o, i = o+len(a.Out), i+len(a.In)
		}
		if o != len(ch.outAdj) || i != len(ch.inAdj) || o != len(ch.arcs) || int(ch.arcOff[len(ch.ids)]) != o {
			return fmt.Errorf("fragment %d: chunk %d holds (%d,%d,%d) entries, headers cover (%d,%d)", f.id, k, len(ch.outAdj), len(ch.inAdj), len(ch.arcs), o, i)
		}
		ids, arcs = ids+len(ch.ids), arcs+len(ch.arcs)
	}
	for v, k := range c.chunkOf {
		if ch := c.chunks[k]; graph.VertexID(v) < ch.lo || int(k)+1 < len(c.chunks) && graph.VertexID(v) >= c.chunks[k+1].lo {
			return fmt.Errorf("fragment %d: chunkOf[%d] = %d, whose range starts at %d", f.id, v, k, ch.lo)
		}
	}
	for p, page := range c.pages {
		for x, a := range page {
			if v := p<<pageBits | x; a != nil != (v < len(present) && present[v] != nil) || a != nil && a != present[v] {
				return fmt.Errorf("fragment %d: the pages give vertex %d the wrong adjacency", f.id, v)
			}
		}
	}
	if len(present) > len(c.chunkOf) || len(c.chunkOf) > len(c.pages)<<pageBits || ids != c.nIDs || arcs != c.nArcs {
		return fmt.Errorf("fragment %d: chunks hold %d copies, %d arcs up to id %d; table says %d, %d, %d pages", f.id, ids, arcs, len(present), c.nIDs, c.nArcs, len(c.pages))
	}
	return nil
}

// ChunkBounds returns the first id of every chunk of f's base.
func ChunkBounds(f *Fragment) []graph.VertexID {
	var los []graph.VertexID
	for _, ch := range f.base.Load().chunks {
		los = append(los, ch.lo)
	}
	return los
}

// ChunkIDs returns the vertex copies chunk k of f's base holds.
func ChunkIDs(f *Fragment, k int) []graph.VertexID { return slices.Clone(f.base.Load().chunks[k].ids) }

// ChunkEntries returns the list entries (out plus in) of every chunk
// of f's base.
func ChunkEntries(f *Fragment) []int {
	var n []int
	for _, ch := range f.base.Load().chunks {
		n = append(n, len(ch.outAdj)+len(ch.inAdj))
	}
	return n
}

// sharedBy reports whether every chunk of a's base is b's chunk at the
// same position, or holds the array of it that part picks.
func sharedBy[T any](a, b *Fragment, part func(*chunk) []T) bool {
	ca, cb := a.base.Load(), b.base.Load()
	if len(ca.chunks) != len(cb.chunks) {
		return false
	}
	for k, ch := range ca.chunks {
		x, y := part(ch), part(cb.chunks[k])
		if ch != cb.chunks[k] && !(len(x) == 0 && len(y) == 0) && !sameArray(x, y) {
			return false
		}
	}
	return true
}

// SharesIDs reports whether every chunk of the two compiled fragments
// holds the very same ids array.
func SharesIDs(a, b *Fragment) bool {
	return sharedBy(a, b, func(ch *chunk) []graph.VertexID { return ch.ids })
}

// SharesArcs reports whether every chunk of the two compiled fragments
// holds the very same arc array.
func SharesArcs(a, b *Fragment) bool {
	return sharedBy(a, b, func(ch *chunk) []uint64 { return ch.arcs })
}

// SharesArcRun reports whether the chunk holding v in a holds the very
// arc array of b's chunk at the same position.
func SharesArcRun(a, b *Fragment, v graph.VertexID) bool {
	ca, cb := a.base.Load(), b.base.Load()
	k := ca.chunkOf[v]
	return sameArray(ca.chunks[k].arcs, cb.chunks[k].arcs)
}

// StorageVertices returns the total number of vertex copies stored,
// dummies included — the space-accounting numerator for Exp-4.
func (p *Partition) StorageVertices() int {
	total := 0
	for _, f := range p.frags {
		total += f.NumVertices()
	}
	return total
}

// BorderNodes returns Fi.O for fragment i: the vertices of Fi that are
// replicated somewhere else, in ascending order.
func (p *Partition) BorderNodes(i int) []graph.VertexID {
	var out []graph.VertexID
	for _, v := range p.frags[i].SortedVertices() {
		if p.IsBorder(v) {
			out = append(out, v)
		}
	}
	return out
}

// RemoveVertex drops v's copy from fragment i together with all its
// local incident arcs.
func (p *Partition) RemoveVertex(i int, v graph.VertexID) {
	adj := p.frags[i].Adjacency(v)
	if adj == nil {
		return
	}
	// Copies: the removals rewrite (or thaw away from) these lists.
	out, in := slices.Clone(adj.Out), slices.Clone(adj.In)
	for _, w := range out {
		p.RemoveArc(i, v, w)
	}
	for _, w := range in {
		p.RemoveArc(i, w, v)
	}
	p.dropIfIsolated(i, v) // an edge-less placeholder copy
}

// IsEdgeCut reports whether the partition is an edge-cut special case:
// every vertex is e-cut and the e-cut node sets of the fragments are
// pairwise disjoint (automatic with canonical e-cut designation, so
// the test reduces to "every vertex with a copy is e-cut").
func (p *Partition) IsEdgeCut() bool {
	for v, cs := range p.copies {
		if len(cs) > 0 && !p.IsECut(graph.VertexID(v)) {
			return false
		}
	}
	return true
}

// IsVertexCut reports whether the partition is a vertex-cut special
// case: fragment edge sets are pairwise disjoint.
func (p *Partition) IsVertexCut() bool { return int64(p.StorageArcs()) == p.g.NumEdges() }

// IsECut reports whether vertex v is e-cut: some fragment holds every
// incident edge of v.
func (p *Partition) IsECut(v graph.VertexID) bool { return p.CompleteFragment(v) >= 0 }
