package partition

import (
	"slices"

	"adp/internal/graph"
)

// Flat construction: every constructor (through Builder) and the file
// reader build fragments directly in compiled form from arc-key lists,
// skipping the per-vertex maps. The fragments are bitwise what NewEmpty +
// the same AddArc sequence + Compile gives — same ids, same packed
// adjacency order (the key list plays the role of AddArc insertion
// order), same sorted arc array — at a handful of arrays per fragment
// instead of a map cell per vertex and arc.

// buildCompiled constructs a compiled fragment from an arc-key list in
// insertion order (deduplicated; key = src<<32|dst) plus edge-less
// placeholder vertices: packed whole as one chunk over every id, then
// split at the boundaries chunkShare sets. nv is the graph's vertex
// universe; every endpoint must be < nv (callers validate).
func buildCompiled(nv int, keys []uint64, loners []graph.VertexID) *compiledFragment {
	// Vertex universe: arc endpoints plus loners, ascending, unique —
	// derived by marking presence in the local array and scanning it in
	// id order, O(nv + keys) instead of sorting a 2|keys| scratch.
	c, local := &chunk{}, make([]int32, nv)
	for i := range local {
		local[i] = -1
	}
	members := 0
	mark := func(v graph.VertexID) {
		if local[v] < 0 {
			local[v] = 0
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
		if local[v] >= 0 {
			local[v] = int32(len(ids))
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
		outOff[local[graph.VertexID(k>>32)]+1]++
		inOff[local[graph.VertexID(k)]+1]++
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
		lu, lv := local[u], local[v]
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

	// Keys in ascending order (g.Edges order, a writer's) are the arc
	// array. Otherwise it is rebuilt a source at a time: a vertex's arc
	// keys are its out-list's and ids ascend, so sorting each run on its
	// own sorts the array.
	if c.arcs = slices.Clone(keys); !slices.IsSorted(keys) {
		c.arcs = c.arcs[:0]
		for l, v := range ids {
			c.arcs = appendArcRun(c.arcs, v, c.adjs[l].Out)
		}
	}
	c.arcOff = outOff
	return splitChunks(c, nv, nil)
}

// appendArcRun appends the arc keys v is the source of, ascending: the
// slots arcOff gives v in a compiled chunk's arc array.
func appendArcRun(dst []uint64, v graph.VertexID, out []graph.VertexID) []uint64 {
	n := len(dst)
	for _, w := range out {
		dst = append(dst, arcKey(v, w))
	}
	if run := dst[n:]; !slices.IsSorted(run) {
		slices.Sort(run)
	}
	return dst
}

// freezeFragment wraps a compiled form in a Fragment with no overlay.
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
// ascending id order, so each vertex's copy list comes out sorted).
// The masters are the caller's: the fragments do not say which one
// touched a vertex first, ensureVertex's rule, so a Builder records that
// as it goes and Read takes them from the file.
func assembleFrozen(g *graph.Graph, frags []*Fragment, master []int32) *Partition {
	nv := g.NumVertices()
	p := &Partition{
		g:      g,
		frags:  frags,
		copies: make([][]int32, nv),
		master: master,
		owner:  make([]int32, nv),
	}
	off := make([]int32, nv+1)
	for _, f := range frags {
		f.Vertices(func(v graph.VertexID, _ *Adj) { off[v+1]++ })
	}
	for v := 0; v < nv; v++ {
		off[v+1] += off[v]
	}
	arena := make([]int32, off[nv])
	pos := make([]int32, nv)
	copy(pos, off[:nv])
	for i, f := range frags {
		f.Vertices(func(v graph.VertexID, _ *Adj) { arena[pos[v]], pos[v] = int32(i), pos[v]+1 })
	}
	for v := 0; v < nv; v++ {
		if lo, hi := off[v], off[v+1]; lo < hi {
			// Capacity clipped to length: insertCopy appends must
			// reallocate instead of scribbling into the neighbour's
			// arena region.
			p.copies[v] = arena[lo:hi:hi]
		}
		p.owner[v] = -1
	}
	return p
}

// Builder accumulates a partition as per-fragment arc lists in call
// order and builds every fragment straight into compiled form: what the
// constructors and the composite builders use instead of NewEmpty + one
// AddArc per arc. The result is, array for array, what Compile gives
// after the same calls on a NewEmpty partition, provided no (fragment,
// arc) pair is added twice — a Builder does not probe for repeats the
// way Partition.AddArc does.
type Builder struct {
	g    *graph.Graph
	keys [][]uint64
	// loners[i] lists the edge-less copies AddVertex placed in fragment i.
	loners [][]graph.VertexID
	// master[v] is the first fragment a call touched v in (ensureVertex's
	// rule on the map path), -1 while v is untouched.
	master []int32
}

// NewBuilder returns a builder of an n-fragment partition of g.
func NewBuilder(g *graph.Graph, n int) *Builder {
	b := &Builder{g: g, keys: make([][]uint64, n), loners: make([][]graph.VertexID, n), master: make([]int32, g.NumVertices())}
	for v := range b.master {
		b.master[v] = -1
	}
	return b
}

// touch records fragment i as v's master if no earlier call touched v.
func (b *Builder) touch(i int, v graph.VertexID) {
	if b.master[v] < 0 {
		b.master[v] = int32(i)
	}
}

// AddArc stores the arc (u,v) in fragment i.
func (b *Builder) AddArc(i int, u, v graph.VertexID) {
	b.keys[i] = append(b.keys[i], arcKey(u, v))
	b.touch(i, u)
	b.touch(i, v)
}

// AddEdge stores the edge (u,v): for undirected graphs both arcs, for
// directed graphs the single arc.
func (b *Builder) AddEdge(i int, u, v graph.VertexID) {
	b.AddArc(i, u, v)
	if b.g.Undirected() && u != v {
		b.AddArc(i, v, u)
	}
}

// AddVertex places an edge-less copy of v in fragment i, which must not
// hold one yet.
func (b *Builder) AddVertex(i int, v graph.VertexID) {
	b.loners[i] = append(b.loners[i], v)
	b.touch(i, v)
}

// Build returns the partition; owners are unset. A vertex no call
// touched gets an edge-less copy in fragment loner(v), mastered there —
// or, with a nil loner, stays absent everywhere (master -1) for a
// caller that places it afterwards.
func (b *Builder) Build(loner func(v graph.VertexID) int) *Partition {
	for v, m := range b.master {
		if m < 0 && loner != nil {
			b.AddVertex(loner(graph.VertexID(v)), graph.VertexID(v))
		}
	}
	frags := make([]*Fragment, len(b.keys))
	for i := range frags {
		frags[i] = freezeFragment(i, buildCompiled(b.g.NumVertices(), b.keys[i], b.loners[i]))
	}
	return assembleFrozen(b.g, frags, b.master)
}

// AppendSortedArcKeys appends every stored arc as a packed
// src<<32|dst key in ascending order and returns the extended slice.
// Compiled fragments answer straight from the chunks' sorted arc
// arrays; an overlay costs one sort of its touched ids plus the fold by
// runs. Callers (composite storage and coherence checks) use this to
// merge fragments without hashing each arc.
func (f *Fragment) AppendSortedArcKeys(dst []uint64) []uint64 {
	var touched []graph.VertexID
	ov, c := f.ov.Load(), f.base.Load()
	if ov != nil && ov.edits != 0 {
		touched = ov.sortedVerts()
	}
	c.eachChunk(touched, func(k int, t []graph.VertexID) {
		dst = appendFoldedArcs(dst, c.chunks[k], ov, t)
	})
	return dst
}
