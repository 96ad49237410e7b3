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

// SnapshotBase copies f's base; f must be compiled.
func SnapshotBase(f *Fragment) *BaseSnapshot {
	c := f.base.Load()
	s := &BaseSnapshot{
		ids: slices.Clone(c.ids), local: slices.Clone(c.local),
		outAdj: slices.Clone(c.outAdj), inAdj: slices.Clone(c.inAdj),
		arcs: slices.Clone(c.arcs), arcOff: slices.Clone(c.arcOff),
	}
	for l := range c.adjs {
		s.outLen = append(s.outLen, len(c.adjs[l].Out))
		s.inLen = append(s.inLen, len(c.adjs[l].In))
	}
	// arcOff counted out of ids and arcs alone.
	a := 0
	for _, id := range c.ids {
		for a < len(c.arcs) && c.arcs[a]>>32 < uint64(id) {
			a++
		}
		s.recomp = append(s.recomp, int32(a))
	}
	s.recomp = append(s.recomp, int32(len(c.arcs)))
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

// CheckPacked verifies that every adjacency header of f's base points
// at its own run of the packed arrays, in local-id order with no gaps.
func CheckPacked(f *Fragment) error {
	c := f.base.Load()
	o, i := 0, 0
	for l := range c.adjs {
		a := &c.adjs[l]
		if len(a.Out) > 0 && &a.Out[0] != &c.outAdj[o] || len(a.In) > 0 && &a.In[0] != &c.inAdj[i] {
			return fmt.Errorf("fragment %d: adjacency of local id %d is not packed at (%d,%d)", f.id, l, o, i)
		}
		o, i = o+len(a.Out), i+len(a.In)
	}
	if o != len(c.outAdj) || i != len(c.inAdj) {
		return fmt.Errorf("fragment %d: packed arrays hold (%d,%d) entries, headers cover (%d,%d)", f.id, len(c.outAdj), len(c.inAdj), o, i)
	}
	return nil
}

// SharesIDs reports whether the two compiled fragments hold the very
// same ids and local arrays.
func SharesIDs(a, b *Fragment) bool {
	ca, cb := a.base.Load(), b.base.Load()
	return len(ca.local) > 0 && &ca.local[0] == &cb.local[0] && len(ca.ids) > 0 && &ca.ids[0] == &cb.ids[0]
}

// SharesArcs reports whether the two compiled fragments hold the very
// same arc array.
func SharesArcs(a, b *Fragment) bool {
	ca, cb := a.base.Load(), b.base.Load()
	return len(ca.arcs) > 0 && len(cb.arcs) > 0 && &ca.arcs[0] == &cb.arcs[0]
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
