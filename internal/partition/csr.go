package partition

import (
	"slices"
	"unsafe"

	"adp/internal/graph"
	"adp/internal/pool"
)

// compiledFragment is the flat execution form of a Fragment, the blocked
// layout of Buluç et al.: chunks owning contiguous id ranges, each with
// packed adjacency and sorted arcs, in ascending id order (concatenated,
// the fragment's local ids, lists and arc slots), and pages that find any
// vertex's adjacency in one step. Immutable and shared by pointer between
// clones and epochs; a fold shares every chunk and page it did not touch.
type compiledFragment struct {
	// pages[v>>pageBits][v&pageMask] is v's adjacency, a header in its
	// chunk, or nil when the fragment holds no copy of v.
	pages  [][]*Adj
	chunks []*chunk
	// chunkOf[v] is the chunk whose range holds v; every fold keeps the
	// boundaries, so all the bases folded from one share it.
	chunkOf []uint8
	// arcBase[k] is the slot of chunks[k]'s first arc; nIDs and nArcs
	// count the fragment's vertex copies and arcs.
	arcBase     []int32
	nIDs, nArcs int
	// pack is the whole-fragment pack the chunks were cut from, while
	// no fold has re-packed one of them. Its pages are then one
	// allocation: the next fold gives each its own, so that no stale
	// entry left in it keeps a replaced chunk alive.
	pack *chunk
}

// chunk holds the ids from lo up to the next chunk's lo.
type chunk struct {
	lo graph.VertexID
	// ids are the chunk's vertex copies, ascending; adjs[l] is the
	// adjacency of ids[l], its lists windows into outAdj/inAdj.
	ids           []graph.VertexID
	adjs          []Adj
	outAdj, inAdj []graph.VertexID
	// arcs are the sorted keys of the arcs the chunk's vertices are the
	// source of; arcOff[l] is where ids[l]'s run starts in arcs, and so
	// where adjs[l].Out starts in outAdj (arcOff[len(ids)] = len(arcs)).
	arcs   []uint64
	arcOff []int32
	// windows says which arrays are windows into the pack splitChunks cut
	// the chunk from: all until a fold re-packs it, then the ids or arcs
	// it kept (ids alone count as owned: they are small).
	windows uint8
}

const (
	ownsAll = iota
	sharesWindow
	allWindows
)

// chunkShare sets the boundaries of a base built from scratch: a chunk
// closes before the vertex that would push it past 1/chunkShare of the
// fragment's list entries, and a vertex over that share alone holds a
// chunk of its own. So any two neighbouring chunks exceed the share, and
// fewer than chunkShare vertices exceed it alone: under 3·chunkShare
// chunks, which a byte of chunkOf indexes. Folds keep the boundaries.
// Pages hold 64 ids: a fold re-points a few hundred bytes per chunk.
const (
	chunkShare = 64
	pageBits   = 6
	pageMask   = 1<<pageBits - 1
)

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

// adjacency is Fragment.Adjacency on the base alone: one page lookup,
// which keeps Fragment.Adjacency and Has within the inlining budget.
func (c *compiledFragment) adjacency(v graph.VertexID) *Adj {
	if p := int(v >> pageBits); p < len(c.pages) {
		return c.pages[p][v&pageMask]
	}
	return nil
}

// has is Fragment.Has on the base alone.
func (c *compiledFragment) has(v graph.VertexID) bool {
	p := int(v >> pageBits)
	return p < len(c.pages) && c.pages[p][v&pageMask] != nil
}

// emptyPage is a page of ids the fragment holds none of; noBase, one
// empty chunk and no pages, is the base of a fragment never compiled.
var (
	emptyPage = make([]*Adj, 1<<pageBits)
	noBase    = newTable(nil, []*chunk{{arcOff: []int32{0}}}, nil)
)

// newTable wraps pages and chunks, in ascending id order, into a base.
func newTable(pages [][]*Adj, chunks []*chunk, chunkOf []uint8) *compiledFragment {
	c := &compiledFragment{pages: pages, chunks: chunks, chunkOf: chunkOf, arcBase: make([]int32, len(chunks))}
	for k, ch := range chunks {
		c.arcBase[k] = int32(c.nArcs)
		c.nIDs += len(ch.ids)
		c.nArcs += len(ch.arcs)
	}
	return c
}

// eachChunk calls fn for every chunk k of c with the ascending ids of
// touched in its range.
func (c *compiledFragment) eachChunk(touched []graph.VertexID, fn func(k int, t []graph.VertexID)) {
	for k := range c.chunks {
		n := len(touched)
		if k+1 < len(c.chunks) {
			n, _ = slices.BinarySearch(touched, c.chunks[k+1].lo)
		}
		fn(k, touched[:n])
		touched = touched[n:]
	}
}

// compileFragment folds the overlay ov into the base b: each chunk
// holding a touched vertex is re-packed by foldChunk and the pages over
// its ids re-pointed; the rest is b's. The never-compiled noBase is
// packed whole and then split, and so is a base still cut from one pack
// when most of its chunks are touched (a refiner's fold), at its own
// boundaries: folded chunk by chunk, refine_pipeline's op_p50_ms was
// higher in 5 of 5 alternating pairs (median 1516 against 1269 ms).
func compileFragment(b *compiledFragment, ov *overlay, numVertices int) *compiledFragment {
	touched, folded := ov.sortedVerts(), 0
	b.eachChunk(touched, func(_ int, t []graph.VertexID) {
		if len(t) > 0 {
			folded++
		}
	})
	switch {
	case b == noBase:
		return splitChunks(foldChunk(b.chunks[0], ov, touched), numVertices, nil)
	case b.pack != nil && 4*folded > len(b.chunks): // the rest would be compacted: as one pack, cut as b is
		return splitChunks(foldChunk(b.pack, ov, touched), numVertices, b)
	}
	chunks, unfolded := slices.Clone(b.chunks), 0
	b.eachChunk(touched, func(k int, t []graph.VertexID) {
		if len(t) > 0 {
			chunks[k] = foldChunk(chunks[k], ov, t)
		}
		if chunks[k].windows == allWindows {
			unfolded++
		}
	})
	// Windows pin the whole pack the split cut: once folds re-packed a
	// quarter of its chunks, the windowed ones this fold left alone get
	// arrays of their own. Waiting for half left serve_write's live heap
	// 3.3 MB higher (28.3 against 25.1 MB) for 11 % fewer bytes a cut.
	for k, ch := range chunks {
		if ch.windows != ownsAll && 4*unfolded < 3*len(chunks) && ch == b.chunks[k] {
			chunks[k] = foldChunk(ch, ov, nil)
			chunks[k].arcs, chunks[k].windows = slices.Clone(ch.arcs), ownsAll
		}
	}
	return newTable(b.repoint(chunks), chunks, b.chunkOf)
}

// repoint returns b's pages for chunks, a fold of b's table: each page
// holding an id of a chunk that is not b's is copied, an allocation of
// its own (one shared with other pages would keep their stale entries
// alive), and pointed at the new headers.
func (b *compiledFragment) repoint(chunks []*chunk) [][]*Adj {
	pages := slices.Clone(b.pages)
	for p, page := range pages {
		if b.pack != nil && !sameArray(page, emptyPage) {
			pages[p] = slices.Clone(page)
		}
	}
	for k, ch := range chunks {
		if ch == b.chunks[k] {
			continue
		}
		for _, ids := range [2][]graph.VertexID{b.chunks[k].ids, ch.ids} {
			for _, v := range ids {
				if p := v >> pageBits; sameArray(pages[p], b.pages[p]) {
					pages[p] = slices.Clone(pages[p])
				}
			}
		}
		for _, v := range b.chunks[k].ids {
			pages[v>>pageBits][v&pageMask] = nil
		}
		for l, v := range ch.ids {
			pages[v>>pageBits][v&pageMask] = &ch.adjs[l]
		}
	}
	return pages
}

// foldChunk folds the overlay into the chunk b, touched being the
// overlay's ascending ids in b's range, by linear merge: untouched runs
// are block-copied, and b's id array is kept when the vertex set did not
// change, its arc array when the arc set did not (an edge deleted and
// re-inserted). The result is array for array a from-scratch pack.
func foldChunk(b *chunk, ov *overlay, touched []graph.VertexID) *chunk {
	nIDs, nOut, nIn := len(b.ids), len(b.outAdj), len(b.inAdj)
	sameSet := true
	for _, v := range touched {
		adj, _ := ov.at(v)
		l, had := slices.BinarySearch(b.ids, v)
		if had {
			nIDs, nOut, nIn = nIDs-1, nOut-len(b.adjs[l].Out), nIn-len(b.adjs[l].In)
		}
		if adj != nil {
			nIDs, nOut, nIn = nIDs+1, nOut+len(adj.Out), nIn+len(adj.In)
		}
		sameSet = sameSet && had == (adj != nil)
	}
	lists := make([]graph.VertexID, 0, nOut+nIn) // the ids, which later folds may keep, are apart
	c := &chunk{
		lo:     b.lo,
		ids:    b.ids,
		adjs:   make([]Adj, 0, nIDs),
		outAdj: lists[:0:nOut],
		inAdj:  lists[nOut : nOut : nOut+nIn],
		arcOff: make([]int32, 0, nIDs+1),
	}
	if !sameSet {
		c.ids = make([]graph.VertexID, 0, nIDs)
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
	sameArcs := ov.edits == 0 || nOut == len(b.arcs) && sameArcRuns(b, ov, touched)
	if c.arcs = b.arcs; !sameArcs {
		c.arcs = appendFoldedArcs(make([]uint64, 0, nOut), b, ov, touched)
	}
	if b.windows != ownsAll && (sameSet || sameArcs) {
		c.windows = sharesWindow
	}
	return c
}

// sameArcRuns reports whether every touched vertex's out-list holds
// exactly the targets of its arc run in b: with a changed arc's source
// always thawed, that tells a restored arc set from a changed one of
// the same size, in a scratch the size of one out-degree.
func sameArcRuns(b *chunk, ov *overlay, touched []graph.VertexID) bool {
	var sorted []graph.VertexID
	for _, v := range touched {
		var old []uint64
		if l, ok := slices.BinarySearch(b.ids, v); ok {
			old = b.arcs[b.arcOff[l]:b.arcOff[l+1]]
		}
		sorted = sorted[:0]
		if adj, _ := ov.at(v); adj != nil {
			sorted = append(sorted, adj.Out...)
		}
		if len(sorted) != len(old) {
			return false
		}
		slices.Sort(sorted)
		for x, w := range sorted {
			if old[x] != arcKey(v, w) {
				return false
			}
		}
	}
	return true
}

// appendFoldedArcs appends to dst the sorted arc keys of the chunk b
// with the overlay applied, touched being the overlay's ascending ids
// in b's range. A changed arc always has a thawed source, so b's runs
// of untouched vertices are copied whole and each touched vertex's run
// is re-derived from its out-list.
func appendFoldedArcs(dst []uint64, b *chunk, ov *overlay, touched []graph.VertexID) []uint64 {
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

// splitChunks cuts w, the whole fragment packed as one chunk, at the
// boundaries of at, or where chunkShare sets them when at is nil, and
// points the pages of the ids [0, numVertices) at its headers. The
// chunks are windows into w: the split copies only the arc offsets and
// allocates a fixed number of arrays.
func splitChunks(w *chunk, numVertices int, at *compiledFragment) *compiledFragment {
	var buf [3*chunkShare + 1]int
	starts := append(buf[:0], 0) // the local id each chunk starts at
	share := (len(w.outAdj) + len(w.inAdj) + chunkShare - 1) / chunkShare
	vol := 0
	for l := range w.adjs {
		d := w.adjs[l].LocalDegree()
		if l > 0 && at == nil && (vol > share || vol+d > share) {
			starts, vol = append(starts, l), 0
		}
		vol += d
	}
	for k := 1; at != nil && k < len(at.chunks); k++ {
		l, _ := slices.BinarySearch(w.ids, at.chunks[k].lo)
		starts = append(starts, l)
	}
	n := len(starts)
	starts = append(starts, len(w.ids))
	chunks, slab := make([]*chunk, n), make([]chunk, n)
	offs := make([]int32, len(w.ids)+n)
	in := 0
	for k := 0; k < n; k++ {
		a, b := starts[k], starts[k+1]
		lo := graph.VertexID(0)
		if at != nil {
			lo = at.chunks[k].lo
		} else if k > 0 {
			lo = w.ids[a]
		}
		arcOff := offs[: b-a+1 : b-a+1]
		offs = offs[b-a+1:]
		for j := range arcOff {
			arcOff[j] = w.arcOff[a+j] - w.arcOff[a]
		}
		o0, o1, i0 := w.arcOff[a], w.arcOff[b], in
		for _, adj := range w.adjs[a:b] {
			in += len(adj.In)
		}
		slab[k] = chunk{
			lo: lo, ids: w.ids[a:b:b], adjs: w.adjs[a:b:b], arcOff: arcOff,
			outAdj: w.outAdj[o0:o1:o1], inAdj: w.inAdj[i0:in:in], arcs: w.arcs[o0:o1:o1], windows: allWindows,
		}
		chunks[k] = &slab[k]
	}
	// Pages holding a copy share one allocation (the next fold gives
	// each its own, see pack); the others are emptyPage, which is never
	// written.
	nPages := (numVertices + pageMask) >> pageBits
	pages, used := make([][]*Adj, nPages), 0
	for p := range pages {
		pages[p] = emptyPage
	}
	for _, v := range w.ids {
		if p := v >> pageBits; sameArray(pages[p], emptyPage) {
			pages[p], used = nil, used+1
		}
	}
	entries := make([]*Adj, used<<pageBits)
	for p := range pages {
		if pages[p] == nil {
			pages[p], entries = entries[:1<<pageBits:1<<pageBits], entries[1<<pageBits:]
		}
	}
	for l, v := range w.ids {
		pages[v>>pageBits][v&pageMask] = &w.adjs[l]
	}
	c := newTable(pages, chunks, nil)
	c.pack = w
	if at != nil {
		c.chunkOf = at.chunkOf
		return c
	}
	c.chunkOf = make([]uint8, numVertices)
	k := 0
	for v := range c.chunkOf {
		for k+1 < n && graph.VertexID(v) >= chunks[k+1].lo {
			k++
		}
		c.chunkOf[v] = uint8(k)
	}
	return c
}

// hasArc probes the base: the shorter of u's out-list and v's in-list
// is scanned while it holds at most 16 entries (most do, on skewed
// graphs), else u's sorted arc run is binary-searched.
func (c *compiledFragment) hasArc(u, v graph.VertexID) bool {
	ua, va := c.adjacency(u), c.adjacency(v)
	switch {
	case ua == nil || va == nil:
		return false
	case len(ua.Out) <= min(len(va.In), 16):
		return slices.Contains(ua.Out, v)
	case len(va.In) <= 16:
		return slices.Contains(va.In, u)
	}
	_, ok := c.arcIndex(u, v)
	return ok
}

func (c *compiledFragment) arcIndex(u, v graph.VertexID) (int, bool) {
	run, first := c.arcRun(u)
	i, ok := slices.BinarySearch(run, arcKey(u, v))
	return first + i, ok
}

// flatLocal returns the remap of the concatenated ids, -1 where absent.
func (c *compiledFragment) flatLocal(numVertices int) []int32 {
	local := make([]int32, numVertices)
	for i := range local {
		local[i] = -1
	}
	l := int32(0)
	for _, ch := range c.chunks {
		for _, v := range ch.ids {
			local[v] = l
			l++
		}
	}
	return local
}

// LocalRemap returns the compiled local-id remap over numVertices ids
// (-1 for vertices with no copy here) plus the number of local slots,
// or (nil, 0) when the fragment is not compiled (it has an overlay, so
// the base's local ids no longer describe it). The cost tracker seeds
// its dense slabs from it, so they start compact, not graph-wide.
func (f *Fragment) LocalRemap(numVertices int) ([]int32, int) {
	if f.ov.Load() != nil {
		return nil, 0
	}
	c := f.base.Load()
	return c.flatLocal(numVertices), c.nIDs
}

// ArcIndex returns the compiled arc slot of (u,v) — the index the
// engine's responsibility bitsets use — and whether the arc is stored
// locally. Only valid on a compiled fragment.
func (f *Fragment) ArcIndex(u, v graph.VertexID) (int, bool) {
	return f.base.Load().arcIndex(u, v)
}

// Packed is a read-only view of a compiled fragment's vertices by local
// id, what the engine's kernels index, assembled once per cluster. A
// fragment of one chunk lends its own ids: callers must not write them.
type Packed struct {
	// IDs[l] is the vertex with local id l, ascending; Local is the
	// inverse remap, -1 where the fragment holds no copy (over the ids
	// rounded up to a whole page); Adjs[l] is the adjacency of IDs[l].
	IDs   []graph.VertexID
	Local []int32
	Adjs  []*Adj
}

// Packed returns the view. Only valid on a compiled fragment.
func (f *Fragment) Packed() Packed {
	c := f.base.Load()
	pk := Packed{IDs: c.chunks[0].ids, Local: c.flatLocal(len(c.pages) << pageBits), Adjs: make([]*Adj, 0, c.nIDs)}
	lend := f.NumChunks() == 1
	if !lend {
		pk.IDs = make([]graph.VertexID, 0, c.nIDs)
	}
	for _, ch := range c.chunks {
		if !lend {
			pk.IDs = append(pk.IDs, ch.ids...)
		}
		for l := range ch.adjs {
			pk.Adjs = append(pk.Adjs, &ch.adjs[l])
		}
	}
	return pk
}

// NumChunks returns how many chunks the fragment's base holds.
func (f *Fragment) NumChunks() int { return len(f.base.Load().chunks) }

// ArcRun returns the arc keys v is the source of, ascending, and the
// arc slot of the first. Only valid on a compiled fragment.
func (f *Fragment) ArcRun(v graph.VertexID) ([]uint64, int) { return f.base.Load().arcRun(v) }

func (c *compiledFragment) arcRun(v graph.VertexID) ([]uint64, int) {
	adj := c.adjacency(v)
	if adj == nil {
		return nil, 0
	}
	// The page entry is one of the chunk's headers, so its index in adjs
	// is v's local id: two addresses, where a binary search of the
	// chunk's ids made engine.NewCluster 1.8x slower on the benchmark
	// composite's partitions (5.7 against 3.2 ms, 2 cores).
	k := c.chunkOf[v]
	ch := c.chunks[k]
	l := (uintptr(unsafe.Pointer(adj)) - uintptr(unsafe.Pointer(unsafe.SliceData(ch.adjs)))) / unsafe.Sizeof(Adj{})
	return ch.arcs[ch.arcOff[l]:ch.arcOff[l+1]], int(c.arcBase[k] + ch.arcOff[l])
}
