package partition

import (
	"slices"

	"adp/internal/graph"
	"adp/internal/pool"
)

// compiledFragment is the flat, index-addressed execution form of a
// Fragment: a dense local-id remap plus packed CSR-style adjacency and
// a sorted arc array. It exists so the BSP engine's hot accessors
// (HasArc, Vertices, Adjacency, ArcIndex) are array reads and binary
// searches instead of map probes — the memory-layout discipline of
// Buluç et al. applied to the fragment store.
//
// A compiledFragment is immutable once built and shared by pointer
// between clones and epochs: mutations accumulate in the fragment's
// overlay and Compile folds them into a new value (compileFragment).
type compiledFragment struct {
	// ids holds every vertex copy in ascending id order; the index of
	// a vertex in ids is its local id.
	ids []graph.VertexID
	// local maps a global vertex id to its local id, -1 when absent.
	// Sized to the partition's vertex universe for O(1) remap.
	local []int32
	// adjs[l] is the adjacency of ids[l]; Out/In point into the packed
	// outAdj/inAdj arrays (one allocation each, cache-dense).
	adjs   []Adj
	outAdj []graph.VertexID
	inAdj  []graph.VertexID
	// arcs is the sorted arc-key array; the index of a key is the
	// fragment's arc slot, which the engine's responsibility index is
	// keyed by.
	arcs []uint64
	// arcOff[l] is the first index in arcs whose source is ids[l]
	// (arcOff[len(ids)] = len(arcs)): keys sort by source first, so a
	// source's arcs are contiguous and a probe is an O(1) remap plus a
	// binary search over that vertex's out-degree only. A vertex's
	// out-arcs are exactly the arc keys it is the source of, so this is
	// also where adjs[l].Out starts in outAdj: how builders fill it in.
	arcOff []int32
}

// Compile folds every fragment's overlay into its flat execution form.
// Idempotent: fragments without an overlay are skipped, and any
// structural mutation (AddArc, RemoveArc, ...) gives the affected
// fragment an overlay again so a later Compile refreshes it. The
// engine compiles at cluster construction and CloneCOW at every cut.
//
// The folds of the fragments with an overlay run as one fan-out on
// pool.Default(): each writes only its own fragment, so the result is
// the same at any worker count.
//
// Compile is safe to call from concurrent readers of an otherwise
// quiescent partition (the bench grids build clusters over a shared
// cached baseline): compilation is deterministic, so racing compiles
// store interchangeable values. Mutation remains single-threaded.
func (p *Partition) Compile() *Partition {
	var dirty []int
	for i, f := range p.frags {
		if f.ov.Load() != nil {
			dirty = append(dirty, i)
		}
	}
	pool.Default().Run(len(dirty), func(x int) { p.CompileFragment(dirty[x]) })
	return p
}

// CompileFragment folds fragment i's overlay, if it has one, into a new
// base: Compile's step for one fragment, for callers that fan the folds
// of several partitions out together.
func (p *Partition) CompileFragment(i int) {
	f := p.frags[i]
	ov := f.ov.Load()
	if ov == nil {
		return
	}
	f.base.Store(compileFragment(f.base.Load(), ov, p.g.NumVertices()))
	if f.ov.CompareAndSwap(ov, nil) {
		f.stale = ov.touched
	}
}

// Compiled reports whether the fragment currently is its flat
// execution form: a base and no overlay.
func (f *Fragment) Compiled() bool { return f.ov.Load() == nil }

// adjacency is Fragment.Adjacency on the base alone.
func (c *compiledFragment) adjacency(v graph.VertexID) *Adj {
	if int(v) < len(c.local) {
		if l := c.local[v]; l >= 0 {
			return &c.adjs[l]
		}
	}
	return nil
}

// has is Fragment.Has on the base alone.
func (c *compiledFragment) has(v graph.VertexID) bool {
	return int(v) < len(c.local) && c.local[v] >= 0
}

// noBase is the base of a fragment that was never compiled.
var noBase = &compiledFragment{arcOff: []int32{0}}

// compileFragment folds the overlay ov into the base b by linear
// merge: only the overlay's touched ids are sorted, the runs of
// untouched base vertices between them are block-copied, and the id
// and remap arrays are shared with b when the vertex set did not
// change, the arc array when the arc set did not (an edge deleted and
// re-inserted; see sameArcs). The result is array for array what
// sorting and packing the whole fragment from scratch produces.
func compileFragment(b *compiledFragment, ov *overlay, numVertices int) *compiledFragment {
	touched := ov.sortedVerts()
	sameSet := len(b.local) == numVertices
	for _, v := range touched {
		if adj, _ := ov.at(v); (adj == nil) != (b.adjacency(v) == nil) {
			sameSet = false
		}
	}
	// Every arc is one entry of its source's Out and one of its
	// target's In, so both packed arrays hold exactly nArcs entries.
	c := &compiledFragment{
		ids:    b.ids,
		local:  b.local,
		adjs:   make([]Adj, 0, ov.nVerts),
		outAdj: make([]graph.VertexID, 0, ov.nArcs),
		inAdj:  make([]graph.VertexID, 0, ov.nArcs),
		arcOff: make([]int32, 0, ov.nVerts+1),
	}
	if !sameSet {
		c.ids = make([]graph.VertexID, 0, ov.nVerts)
	}
	// pack appends the vertices vs, whose lists lie back to back at the
	// start of out and in, and returns how much of each they cover. The
	// headers are laid out first and the contents follow as two block
	// copies, in the order the mutators left them, so compiled
	// execution visits arcs in that order and floating-point reductions
	// are unchanged.
	pack := func(vs []graph.VertexID, adjs []Adj, out, in []graph.VertexID) (int, int) {
		o0, i0 := len(c.outAdj), len(c.inAdj)
		o, i := o0, i0
		for _, a := range adjs {
			c.arcOff = append(c.arcOff, int32(o))
			c.adjs = append(c.adjs, Adj{Out: c.outAdj[o : o+len(a.Out) : o+len(a.Out)], In: c.inAdj[i : i+len(a.In) : i+len(a.In)]})
			o, i = o+len(a.Out), i+len(a.In)
		}
		c.outAdj = append(c.outAdj, out[:o-o0]...)
		c.inAdj = append(c.inAdj, in[:i-i0]...)
		if !sameSet {
			c.ids = append(c.ids, vs...)
		}
		return o - o0, i - i0
	}
	// bl walks b's local ids; bo and bi are where bl's lists start in
	// b's packed arrays.
	bl, bo, bi := 0, 0, 0
	for _, v := range touched {
		n, found := slices.BinarySearch(b.ids[bl:], v)
		no, ni := pack(b.ids[bl:bl+n], b.adjs[bl:bl+n], b.outAdj[bo:], b.inAdj[bi:])
		bl, bo, bi = bl+n, bo+no, bi+ni
		if found { // superseded by the overlay's copy, or dropped
			bo, bi = bo+len(b.adjs[bl].Out), bi+len(b.adjs[bl].In)
			bl++
		}
		if adj, _ := ov.at(v); adj != nil {
			pack([]graph.VertexID{v}, []Adj{*adj}, adj.Out, adj.In)
		}
	}
	pack(b.ids[bl:], b.adjs[bl:], b.outAdj[bo:], b.inAdj[bi:])
	c.arcOff = append(c.arcOff, int32(len(c.outAdj)))
	if !sameSet {
		c.local = newLocal(numVertices, c.ids)
	}
	if c.arcs = b.arcs; !sameArcs(b, ov, touched) {
		c.arcs = appendFoldedArcs(make([]uint64, 0, ov.nArcs), b, ov, touched)
	}
	return c
}

// sameArcs reports whether the overlay leaves b's arc set as it is,
// touched being ov.sortedVerts(). A changed arc always has a thawed
// source, so it compares each touched vertex's arc run, rebuilt in a
// scratch the size of one out-degree, with that vertex's run in b: no
// arc array is built to be thrown away.
func sameArcs(b *compiledFragment, ov *overlay, touched []graph.VertexID) bool {
	if ov.edits == 0 {
		return true
	}
	if ov.nArcs != len(b.arcs) {
		return false
	}
	var run, old []uint64
	for _, v := range touched {
		if run, old = run[:0], nil; b.has(v) {
			old = b.arcs[b.arcOff[b.local[v]]:b.arcOff[b.local[v]+1]]
		}
		if adj, _ := ov.at(v); adj != nil {
			run = appendArcRun(run, v, adj.Out)
		}
		if !slices.Equal(run, old) {
			return false
		}
	}
	return true
}

// newLocal builds the global→local remap of the ascending id array.
func newLocal(numVertices int, ids []graph.VertexID) []int32 {
	local := make([]int32, numVertices)
	for i := range local {
		local[i] = -1
	}
	for l, v := range ids {
		local[v] = int32(l)
	}
	return local
}

// appendFoldedArcs appends to dst the sorted arc keys of b with the
// overlay applied, touched being ov.sortedVerts(). A changed arc always
// has a thawed source, so b's runs of untouched vertices are copied
// whole and each touched vertex's run is re-derived from its out-list.
func appendFoldedArcs(dst []uint64, b *compiledFragment, ov *overlay, touched []graph.VertexID) []uint64 {
	bl := 0
	for _, v := range touched {
		n, found := slices.BinarySearch(b.ids[bl:], v)
		dst = append(dst, b.arcs[b.arcOff[bl]:b.arcOff[bl+n]]...)
		if bl += n; found {
			bl++
		}
		if adj, _ := ov.at(v); adj != nil {
			dst = appendArcRun(dst, v, adj.Out)
		}
	}
	return append(dst, b.arcs[b.arcOff[bl]:]...)
}

// byteSize returns the heap footprint of the compiled form's arrays.
func (c *compiledFragment) byteSize() int64 {
	const adjHdr = 48 // two slice headers
	return int64(len(c.ids))*4 + int64(len(c.local))*4 +
		int64(len(c.adjs))*adjHdr +
		int64(len(c.outAdj)+len(c.inAdj))*4 +
		int64(len(c.arcs))*8 + int64(len(c.arcOff))*4
}

// hasArc probes the compiled arc array: O(1) source remap plus a
// binary search over that source's out-arcs only.
func (c *compiledFragment) hasArc(u, v graph.VertexID) bool {
	_, ok := c.arcIndex(u, v)
	return ok
}

func (c *compiledFragment) arcIndex(u, v graph.VertexID) (int, bool) {
	if !c.has(u) {
		return 0, false
	}
	lu := c.local[u]
	k := arcKey(u, v)
	lo, hi := int(c.arcOff[lu]), int(c.arcOff[lu+1])
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.arcs[mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(c.arcs) && c.arcs[lo] == k {
		return lo, true
	}
	return 0, false
}

// LocalRemap returns a copy of the compiled local-id remap padded to
// numVertices (-1 for vertices with no copy here) plus the number of
// local slots, or (nil, 0) when the fragment is not compiled (it has
// an overlay, so the base's local ids no longer describe it).
// The cost tracker seeds its dense contribution slabs from it, so on a
// compiled partition the slabs start compact instead of graph-wide.
func (f *Fragment) LocalRemap(numVertices int) ([]int32, int) {
	if f.ov.Load() != nil {
		return nil, 0
	}
	c := f.base.Load()
	remap := make([]int32, numVertices)
	n := copy(remap, c.local)
	for i := n; i < numVertices; i++ {
		remap[i] = -1
	}
	return remap, len(c.ids)
}

// ArcIndex returns the compiled arc slot of (u,v) — the index the
// engine's responsibility bitsets use — and whether the arc is stored
// locally. Only valid on a compiled fragment.
func (f *Fragment) ArcIndex(u, v graph.VertexID) (int, bool) {
	return f.base.Load().arcIndex(u, v)
}

// Packed is a read-only view of a compiled fragment's arrays, for
// consumers that address the fragment by index instead of by vertex id
// (the engine builds its scan plans and responsibility index from it).
// The slices are the fragment's own and are shared with clones and
// epochs: callers must not write them.
type Packed struct {
	// IDs[l] is the vertex with local id l, ascending; Local is the
	// inverse remap, -1 where the fragment holds no copy.
	IDs   []graph.VertexID
	Local []int32
	// Adjs[l] is the adjacency of IDs[l]. Its lists are windows into
	// Out and In, where the lists of consecutive local ids lie back to
	// back, so a running sum of their lengths addresses both arrays.
	Adjs    []Adj
	Out, In []graph.VertexID
	// Arcs is the sorted arc-key array; the index of a key is the
	// fragment's arc slot. ArcOff[l]:ArcOff[l+1] are the slots whose
	// source is IDs[l] and, every out-arc being one key, also where
	// Adjs[l].Out lies in Out.
	Arcs   []uint64
	ArcOff []int32
}

// Packed returns the view. Only valid on a compiled fragment.
func (f *Fragment) Packed() Packed {
	c := f.base.Load()
	return Packed{IDs: c.ids, Local: c.local, Adjs: c.adjs, Out: c.outAdj, In: c.inAdj, Arcs: c.arcs, ArcOff: c.arcOff}
}
