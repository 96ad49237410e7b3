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
