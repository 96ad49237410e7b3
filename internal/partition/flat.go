package partition

import (
	"fmt"
	"slices"

	"adp/internal/graph"
)

// Flat construction: the loaders on the big-graph path build
// fragments directly in compiled form from arc-key lists, skipping the
// per-vertex maps entirely. The resulting fragments are bitwise
// equivalent to map-built fragments after Compile — same ids, same
// packed adjacency order (the key list plays the role of AddArc
// insertion order), same sorted arc array — so the engine, the
// refiners (thawing the vertices they touch) and the equality checkers
// see no difference. What changes is the cost: building 10M arcs allocates a
// handful of arrays instead of millions of map cells.

// buildCompiled constructs a compiled fragment from an arc-key list in
// insertion order (deduplicated; key = src<<32|dst) plus edge-less
// placeholder vertices. nv is the graph's vertex universe; every
// endpoint must be < nv (callers validate).
func buildCompiled(nv int, keys []uint64, loners []graph.VertexID) *compiledFragment {
	// Vertex universe: arc endpoints plus loners, ascending, unique —
	// derived by marking presence in the local array and scanning it in
	// id order, O(nv + keys) instead of sorting a 2|keys| scratch.
	c := &compiledFragment{local: make([]int32, nv)}
	for i := range c.local {
		c.local[i] = -1
	}
	members := 0
	mark := func(v graph.VertexID) {
		if c.local[v] < 0 {
			c.local[v] = 0
			members++
		}
	}
	for _, k := range keys {
		mark(graph.VertexID(k >> 32))
		mark(graph.VertexID(k))
	}
	for _, v := range loners {
		mark(v)
	}
	ids := make([]graph.VertexID, 0, members)
	for v := 0; v < nv; v++ {
		if c.local[v] >= 0 {
			c.local[v] = int32(len(ids))
			ids = append(ids, graph.VertexID(v))
		}
	}
	c.ids = ids

	// Degree counts, then offset carving, then a fill pass in key
	// order: each vertex's packed Out/In sequence ends up in insertion
	// order, exactly as compileFragment packs a map fragment populated
	// by AddArc in the same order.
	outOff := make([]int32, len(ids)+1)
	inOff := make([]int32, len(ids)+1)
	for _, k := range keys {
		outOff[c.local[graph.VertexID(k>>32)]+1]++
		inOff[c.local[graph.VertexID(k)]+1]++
	}
	for l := 0; l < len(ids); l++ {
		outOff[l+1] += outOff[l]
		inOff[l+1] += inOff[l]
	}
	c.outAdj = make([]graph.VertexID, len(keys))
	c.inAdj = make([]graph.VertexID, len(keys))
	outPos := make([]int32, len(ids))
	inPos := make([]int32, len(ids))
	copy(outPos, outOff[:len(ids)])
	copy(inPos, inOff[:len(ids)])
	for _, k := range keys {
		u, v := graph.VertexID(k>>32), graph.VertexID(k)
		lu, lv := c.local[u], c.local[v]
		c.outAdj[outPos[lu]] = v
		outPos[lu]++
		c.inAdj[inPos[lv]] = u
		inPos[lv]++
	}
	c.adjs = make([]Adj, len(ids))
	for l := range ids {
		oLo, oHi := outOff[l], outOff[l+1]
		iLo, iHi := inOff[l], inOff[l+1]
		c.adjs[l] = Adj{Out: c.outAdj[oLo:oHi:oHi], In: c.inAdj[iLo:iHi:iHi]}
	}

	c.arcs = make([]uint64, len(keys))
	copy(c.arcs, keys)
	if !slices.IsSorted(c.arcs) {
		slices.Sort(c.arcs)
	}
	c.arcOff = outOff
	return c
}

// freezeFragment wraps a directly-built compiled form in a Fragment
// with no overlay.
func freezeFragment(id int, c *compiledFragment) *Fragment {
	f := &Fragment{id: id}
	f.base.Store(c)
	return f
}

// dedupKeysInOrder removes duplicate arc keys keeping first
// occurrences in order (AddArc treats a repeated arc as a no-op).
// Already-ascending input — what the writers emit — is detected in one
// O(n) pass and returned untouched; only unsorted input pays for a
// sorted scratch copy to test for duplicates.
func dedupKeysInOrder(keys []uint64) []uint64 {
	ascending := true
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			ascending = false
			break
		}
	}
	if ascending {
		return keys
	}
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	clean := true
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			clean = false
			break
		}
	}
	if clean {
		return keys
	}
	seen := make(map[uint64]struct{}, len(keys))
	out := keys[:0]
	for _, k := range keys {
		if _, ok := seen[k]; ok {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, k)
	}
	return out
}

// assembleFrozen wires frozen fragments into a Partition: the copies
// index is carved out of one counting arena (fragments are visited in
// ascending id order, so each vertex's copy list comes out sorted),
// and masters default to the first fragment holding the vertex —
// the same first-touch rule ensureVertex applies on the map path.
func assembleFrozen(g *graph.Graph, frags []*Fragment) *Partition {
	nv := g.NumVertices()
	p := &Partition{
		g:      g,
		frags:  frags,
		copies: make([][]int32, nv),
		master: make([]int32, nv),
		owner:  make([]int32, nv),
	}
	off := make([]int32, nv+1)
	for _, f := range frags {
		for _, v := range f.base.Load().ids {
			off[v+1]++
		}
	}
	for v := 0; v < nv; v++ {
		off[v+1] += off[v]
	}
	arena := make([]int32, off[nv])
	pos := make([]int32, nv)
	copy(pos, off[:nv])
	for i, f := range frags {
		for _, v := range f.base.Load().ids {
			arena[pos[v]] = int32(i)
			pos[v]++
		}
	}
	for v := 0; v < nv; v++ {
		lo, hi := off[v], off[v+1]
		if lo == hi {
			p.master[v] = -1
		} else {
			// Capacity clipped to length: insertCopy appends must
			// reallocate instead of scribbling into the neighbour's
			// arena region.
			p.copies[v] = arena[lo:hi:hi]
			p.master[v] = p.copies[v][0]
		}
		p.owner[v] = -1
	}
	return p
}

// FromVertexAssignmentFlat is FromVertexAssignment built on the frozen
// fast path: identical placement, masters and owners, but fragments
// are constructed directly in compiled form. Use it for large graphs
// where the map-backed constructor's per-vertex allocations dominate.
func FromVertexAssignmentFlat(g *graph.Graph, assign []int, n int) (*Partition, error) {
	if len(assign) != g.NumVertices() {
		return nil, fmt.Errorf("partition: assignment covers %d of %d vertices", len(assign), g.NumVertices())
	}
	for v := range assign {
		if assign[v] < 0 || assign[v] >= n {
			return nil, fmt.Errorf("partition: vertex %d assigned to fragment %d of %d", v, assign[v], n)
		}
	}
	// Count, then fill, each fragment's key list in the exact order
	// FromVertexAssignment issues AddArc calls.
	counts := make([]int64, n)
	g.Edges(func(s, d graph.VertexID) bool {
		counts[assign[s]]++
		if assign[d] != assign[s] {
			counts[assign[d]]++
		}
		return true
	})
	keys := make([][]uint64, n)
	for i := range keys {
		keys[i] = make([]uint64, 0, counts[i])
	}
	g.Edges(func(s, d graph.VertexID) bool {
		k := arcKey(s, d)
		keys[assign[s]] = append(keys[assign[s]], k)
		if assign[d] != assign[s] {
			keys[assign[d]] = append(keys[assign[d]], k)
		}
		return true
	})
	loners := make([][]graph.VertexID, n)
	for v := 0; v < g.NumVertices(); v++ {
		if g.OutDegree(graph.VertexID(v)) == 0 && g.InDegree(graph.VertexID(v)) == 0 {
			loners[assign[v]] = append(loners[assign[v]], graph.VertexID(v))
		}
	}
	nv := g.NumVertices()
	frags := make([]*Fragment, n)
	for i := range frags {
		frags[i] = freezeFragment(i, buildCompiled(nv, keys[i], loners[i]))
	}
	p := assembleFrozen(g, frags)
	for v := 0; v < nv; v++ {
		if p.frags[assign[v]].Has(graph.VertexID(v)) {
			p.master[v] = int32(assign[v])
		}
		p.owner[v] = int32(assign[v])
	}
	return p, nil
}

// AppendSortedArcKeys appends every stored arc as a packed
// src<<32|dst key in ascending order and returns the extended slice.
// Compiled fragments answer straight from the sorted base arc array;
// an overlay costs one sort of its changed keys plus the merge.
// Callers (the composite coherence index) use this to merge fragments
// without hashing each arc.
func (f *Fragment) AppendSortedArcKeys(dst []uint64) []uint64 {
	ov := f.ov.Load()
	var base []uint64
	if c := f.base.Load(); c != nil {
		base = c.arcs
	}
	if ov == nil {
		return append(dst, base...)
	}
	return mergeArcKeys(dst, base, ov.arcs)
}
