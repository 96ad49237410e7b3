// Package partition implements the hybrid graph partition model of
// Section 2 of the paper: an n-cut hybrid partition HP(n) divides a
// graph G into fragments F1..Fn whose vertex and edge sets cover G.
// Vertices are classified per copy as e-cut nodes (the fragment holds
// every incident edge), v-cut nodes (no fragment holds every incident
// edge) or dummy nodes (a copy of an e-cut vertex elsewhere). Border
// (replicated) vertices carry a master-node mapping.
//
// Both edge-cut and vertex-cut partitions are special cases, and the
// package computes the paper's quality metrics: replication ratios fv and fe and balance factors
// λv and λe.
package partition

import (
	"fmt"
	"slices"
	"sync/atomic"

	"adp/internal/graph"
)

// Status classifies a vertex copy inside one fragment (Section 2).
type Status uint8

const (
	// Absent means the fragment holds no copy of the vertex.
	Absent Status = iota
	// ECutNode is the copy of an e-cut vertex that holds every
	// incident edge; computation for the vertex happens here.
	ECutNode
	// VCutNode is a copy of a vertex none of whose copies is
	// complete; computation is split across the copies.
	VCutNode
	// DummyNode is a non-computing copy of an e-cut vertex.
	DummyNode
)

func (s Status) String() string {
	switch s {
	case Absent:
		return "absent"
	case ECutNode:
		return "e-cut"
	case VCutNode:
		return "v-cut"
	case DummyNode:
		return "dummy"
	}
	return "invalid"
}

// Adj is the local adjacency of one vertex copy inside a fragment.
// Slices are owned by the fragment; callers must not mutate them.
type Adj struct {
	Out []graph.VertexID
	In  []graph.VertexID
}

// LocalDegree returns the number of local incident arcs.
func (a *Adj) LocalDegree() int { return len(a.Out) + len(a.In) }

// Fragment is one piece Fi of a hybrid partition: a set of arcs of G
// held as per-vertex adjacency plus an arc set.
//
// A Fragment is one thing: an immutable compiled base (see
// compiledFragment) plus an overlay holding only the vertices a
// mutation touched, addressed by a dense vertex index, not hashed.
// The constructors emit bases (see Builder); NewEmpty starts from an
// overlay over the empty base. Compile folds the overlay into a new
// base and drops it. A mutation of a compiled fragment — a refiner's
// move, a served write — creates an overlay and copies just the
// touched vertices' adjacency into it (thaw): the base is never
// written, because clones and epochs share it by pointer. Every
// accessor reads overlay-then-base.
type Fragment struct {
	id int
	// base is the compiled form, noBase for a fragment never compiled;
	// atomic because concurrent cluster constructions may Compile a
	// shared baseline partition.
	base atomic.Pointer[compiledFragment]
	// ov is nil on a compiled fragment. Compile stores the new base
	// before clearing it, so a racing reader that still holds the old
	// overlay sees the same contents through either base.
	ov atomic.Pointer[overlay]
	// slot is the vertex index of every overlay this fragment creates,
	// kept from one to the next so a mutation wave costs O(touched), not
	// O(|V|). stale lists the entries the last folded overlay left set;
	// the next overlay zeroes them, not Compile, whose racing readers may
	// still probe the old one.
	slot  []int32
	stale []graph.VertexID
}

// overlay is the mutable part of a Fragment, relative to its base.
type overlay struct {
	// slot[v] indexes v's private adjacency in adjs (nil for a dropped
	// copy), 0 when v is untouched: adjs[0] is a placeholder. touched
	// lists the touched vertices in first-touch order.
	slot    []int32
	adjs    []*Adj
	touched []graph.VertexID
	// edits counts arc insertions and removals; 0 means the arc set is
	// the base's. A changed arc always has a thawed source, so the fold
	// tells a restored arc set from a changed one run by run (sameArcs).
	edits int
	// Fragment totals (base and overlay together).
	nVerts, nArcs int
}

// mutable returns the overlay a structural mutator writes, creating it
// on the first mutation of a compiled fragment.
func (f *Fragment) mutable(numVertices int) *overlay {
	if ov := f.ov.Load(); ov != nil {
		return ov
	}
	if len(f.slot) < numVertices {
		f.slot = make([]int32, numVertices)
	}
	for _, v := range f.stale {
		f.slot[v] = 0
	}
	f.stale = nil
	c := f.base.Load()
	ov := &overlay{slot: f.slot, adjs: []*Adj{nil}, nVerts: len(c.ids), nArcs: len(c.arcs)}
	f.ov.Store(ov)
	return ov
}

// at returns v's adjacency in the overlay and whether the overlay has
// touched v.
func (ov *overlay) at(v graph.VertexID) (*Adj, bool) {
	if int(v) >= len(ov.slot) {
		return nil, false
	}
	s := ov.slot[v]
	return ov.adjs[s], s != 0
}

// put records adj (nil drops the copy) as v's adjacency.
func (ov *overlay) put(v graph.VertexID, adj *Adj) {
	if s := ov.slot[v]; s != 0 {
		ov.adjs[s] = adj
		return
	}
	ov.slot[v] = int32(len(ov.adjs))
	ov.adjs = append(ov.adjs, adj)
	ov.touched = append(ov.touched, v)
}

// thaw returns the overlay's private copy of v's adjacency, copying it
// out of the base on first touch (the base's packed arrays are shared
// with clones and never written). Nil when v has no copy here.
func (f *Fragment) thaw(ov *overlay, v graph.VertexID) *Adj {
	if adj, ok := ov.at(v); ok {
		return adj
	}
	badj := f.base.Load().adjacency(v)
	if badj == nil {
		return nil
	}
	adj := &Adj{Out: slices.Clone(badj.Out), In: slices.Clone(badj.In)}
	ov.put(v, adj)
	return adj
}

func arcKey(u, v graph.VertexID) uint64 { return uint64(u)<<32 | uint64(v) }

// ID returns the fragment index in [0, n).
func (f *Fragment) ID() int { return f.id }

// NumArcs returns |Ei|, the number of arcs stored in the fragment.
func (f *Fragment) NumArcs() int {
	if ov := f.ov.Load(); ov != nil {
		return ov.nArcs
	}
	return len(f.base.Load().arcs)
}

// NumVertices returns the number of vertex copies (including dummies)
// present in the fragment.
func (f *Fragment) NumVertices() int {
	if ov := f.ov.Load(); ov != nil {
		return ov.nVerts
	}
	return len(f.base.Load().ids)
}

// Has reports whether a copy of v is present. It and Adjacency spell
// the overlay probe out, so both stay within the inlining budget.
func (f *Fragment) Has(v graph.VertexID) bool {
	if ov := f.ov.Load(); ov != nil && int(v) < len(ov.slot) && ov.slot[v] != 0 {
		return ov.adjs[ov.slot[v]] != nil
	}
	return f.base.Load().has(v)
}

// HasArc reports whether the arc (u,v) is stored locally. Adding or
// removing an arc thaws both endpoints, so unless both are thawed the
// base still answers (a binary search over u's run); otherwise the
// shorter of u's out-list and v's in-list is scanned.
func (f *Fragment) HasArc(u, v graph.VertexID) bool {
	if ov := f.ov.Load(); ov != nil {
		ua, uok := ov.at(u)
		va, vok := ov.at(v)
		switch {
		case !uok || !vok:
		case ua == nil || va == nil:
			return false
		case len(ua.Out) <= len(va.In):
			return slices.Contains(ua.Out, v)
		default:
			return slices.Contains(va.In, u)
		}
	}
	return f.base.Load().hasArc(u, v)
}

// Adjacency returns the local adjacency of v, or nil if absent.
func (f *Fragment) Adjacency(v graph.VertexID) *Adj {
	if ov := f.ov.Load(); ov != nil && int(v) < len(ov.slot) && ov.slot[v] != 0 {
		return ov.adjs[ov.slot[v]]
	}
	return f.base.Load().adjacency(v)
}

// Vertices calls fn for every vertex copy in ascending id order.
// Deterministic iteration keeps the refiners reproducible. On a
// compiled fragment this walks the prebuilt id array (no per-call
// sort); with an overlay the sorted touched ids are merged into that
// walk.
func (f *Fragment) Vertices(fn func(v graph.VertexID, adj *Adj)) {
	c := f.base.Load()
	l := 0
	if ov := f.ov.Load(); ov != nil {
		for _, v := range ov.sortedVerts() {
			for ; l < len(c.ids) && c.ids[l] < v; l++ {
				fn(c.ids[l], &c.adjs[l])
			}
			if l < len(c.ids) && c.ids[l] == v {
				l++
			}
			if adj, _ := ov.at(v); adj != nil {
				fn(v, adj)
			}
		}
	}
	for ; l < len(c.ids); l++ {
		fn(c.ids[l], &c.adjs[l])
	}
}

// SortedVertices returns the ids of all vertex copies in ascending
// order. The returned slice is the caller's to keep.
func (f *Fragment) SortedVertices() []graph.VertexID {
	ids := make([]graph.VertexID, 0, f.NumVertices())
	f.Vertices(func(v graph.VertexID, _ *Adj) { ids = append(ids, v) })
	return ids
}

// sortedVerts returns every touched vertex id (dropped copies included)
// in ascending order.
func (ov *overlay) sortedVerts() []graph.VertexID {
	ids := slices.Clone(ov.touched)
	slices.Sort(ids)
	return ids
}

// Partition is a hybrid partition HP(n) of a graph.
type Partition struct {
	g      *graph.Graph
	frags  []*Fragment
	copies [][]int32 // copies[v] = sorted fragment ids holding a copy of v
	master []int32   // master[v] = fragment id of the master copy, -1 if v absent everywhere
	owner  []int32   // owner[v] = preferred compute fragment for e-cut designation, -1 if unset
	// weight optionally carries per-vertex data sizes (the |Ary| of
	// the Section-3.1 remark: mutable vertex payloads that scale an
	// algorithm's per-vertex cost). Nil when unused; 1.0 is the
	// implied default.
	weight []float64
	// copiesShared marks the per-vertex copies slices as shared with a
	// CloneCOW sibling (possibly a published epoch): insertCopy and
	// removeCopy must then allocate fresh slices instead of mutating
	// the shared backing arrays in place. Sticky once set.
	copiesShared bool
}

// NewEmpty returns a partition of g with n empty fragments.
func NewEmpty(g *graph.Graph, n int) *Partition {
	p := &Partition{
		g:      g,
		frags:  make([]*Fragment, n),
		copies: make([][]int32, g.NumVertices()),
		master: make([]int32, g.NumVertices()),
		owner:  make([]int32, g.NumVertices()),
	}
	for i := range p.frags {
		p.frags[i] = freezeFragment(i, noBase)
		p.overlayOf(i)
	}
	for i := range p.master {
		p.master[i] = -1
		p.owner[i] = -1
	}
	return p
}

// Graph returns the underlying graph.
func (p *Partition) Graph() *graph.Graph { return p.g }

// NumFragments returns n.
func (p *Partition) NumFragments() int { return len(p.frags) }

// Fragment returns fragment i.
func (p *Partition) Fragment(i int) *Fragment { return p.frags[i] }

// Copies returns the sorted fragment ids holding a copy of v. The
// returned slice is owned by the partition.
func (p *Partition) Copies(v graph.VertexID) []int32 { return p.copies[v] }

// Replication returns r(v): the number of mirror copies of v, i.e.
// copies minus one (0 when v is held by a single fragment).
func (p *Partition) Replication(v graph.VertexID) int {
	if len(p.copies[v]) == 0 {
		return 0
	}
	return len(p.copies[v]) - 1
}

// IsBorder reports whether v is replicated across fragments (v ∈ F.O).
func (p *Partition) IsBorder(v graph.VertexID) bool { return len(p.copies[v]) >= 2 }

// Master returns the fragment id of v's master copy (-1 if v is
// nowhere present).
func (p *Partition) Master(v graph.VertexID) int { return int(p.master[v]) }

// SetMaster reassigns the master copy of v to fragment i, which must
// hold a copy of v.
func (p *Partition) SetMaster(v graph.VertexID, i int) error {
	if !p.frags[i].Has(v) {
		return fmt.Errorf("partition: fragment %d holds no copy of %d", i, v)
	}
	p.master[v] = int32(i)
	return nil
}

// overlayOf returns fragment i's writable overlay.
func (p *Partition) overlayOf(i int) *overlay { return p.frags[i].mutable(p.g.NumVertices()) }

// ensureVertex returns the writable adjacency of v's copy in fragment
// i, adding an empty copy when there is none.
func (p *Partition) ensureVertex(i int, v graph.VertexID) *Adj {
	f := p.frags[i]
	ov := p.overlayOf(i)
	adj := f.thaw(ov, v)
	if adj == nil {
		adj = &Adj{}
		ov.put(v, adj)
		ov.nVerts++
		p.insertCopy(v, int32(i))
		if p.master[v] < 0 {
			p.master[v] = int32(i)
		}
	}
	return adj
}

func (p *Partition) insertCopy(v graph.VertexID, i int32) {
	cs := p.copies[v]
	pos, found := slices.BinarySearch(cs, i)
	if found {
		return
	}
	if p.copiesShared {
		// The backing array may belong to a published epoch (or the
		// frozen loaders' arena); never write it in place.
		ns := make([]int32, len(cs)+1)
		copy(ns, cs[:pos])
		ns[pos] = i
		copy(ns[pos+1:], cs[pos:])
		p.copies[v] = ns
		return
	}
	cs = append(cs, 0)
	copy(cs[pos+1:], cs[pos:])
	cs[pos] = i
	p.copies[v] = cs
}

func (p *Partition) removeCopy(v graph.VertexID, i int32) {
	cs := p.copies[v]
	pos, found := slices.BinarySearch(cs, i)
	if !found {
		return
	}
	if p.copiesShared {
		ns := make([]int32, len(cs)-1)
		copy(ns, cs[:pos])
		copy(ns[pos:], cs[pos+1:])
		p.copies[v] = ns
	} else {
		p.copies[v] = append(cs[:pos], cs[pos+1:]...)
	}
	if p.master[v] == i {
		if len(p.copies[v]) > 0 {
			p.master[v] = p.copies[v][0]
		} else {
			p.master[v] = -1
		}
	}
}

// AddVertex places an (initially edge-less) copy of v in fragment i.
// Used for dummy placeholders.
func (p *Partition) AddVertex(i int, v graph.VertexID) {
	if !p.frags[i].Has(v) {
		p.ensureVertex(i, v)
	}
}

// AddArc stores the arc (u,v) in fragment i, creating vertex copies
// for both endpoints as needed. Adding an arc twice is a no-op.
// For undirected graphs callers should use AddEdge so the symmetric
// arc pair stays co-located.
func (p *Partition) AddArc(i int, u, v graph.VertexID) {
	f := p.frags[i]
	if f.HasArc(u, v) {
		return
	}
	ov := p.overlayOf(i)
	ov.edits++
	ov.nArcs++
	ua := p.ensureVertex(i, u)
	ua.Out = append(ua.Out, v)
	va := p.ensureVertex(i, v)
	va.In = append(va.In, u)
}

// AddEdge stores the edge (u,v): for undirected graphs both arcs, for
// directed graphs the single arc.
func (p *Partition) AddEdge(i int, u, v graph.VertexID) {
	p.AddArc(i, u, v)
	if p.g.Undirected() {
		p.AddArc(i, v, u)
	}
}

// RemoveArc deletes the arc (u,v) from fragment i. Vertex copies that
// become edge-less are removed. Returns true if the arc was present.
func (p *Partition) RemoveArc(i int, u, v graph.VertexID) bool {
	f := p.frags[i]
	if !f.HasArc(u, v) {
		return false
	}
	ov := p.overlayOf(i)
	ov.edits++
	ov.nArcs--
	ua := f.thaw(ov, u)
	ua.Out = removeID(ua.Out, v)
	va := f.thaw(ov, v)
	va.In = removeID(va.In, u)
	p.dropIfIsolated(i, u)
	p.dropIfIsolated(i, v)
	return true
}

// RemoveEdge deletes the edge (u,v); for undirected graphs both arcs.
func (p *Partition) RemoveEdge(i int, u, v graph.VertexID) bool {
	ok := p.RemoveArc(i, u, v)
	if p.g.Undirected() {
		ok = p.RemoveArc(i, v, u) || ok
	}
	return ok
}

func (p *Partition) dropIfIsolated(i int, v graph.VertexID) {
	f := p.frags[i]
	if adj := f.Adjacency(v); adj != nil && adj.LocalDegree() == 0 {
		ov := p.overlayOf(i)
		ov.put(v, nil)
		ov.nVerts--
		p.removeCopy(v, int32(i))
	}
}

func removeID(s []graph.VertexID, v graph.VertexID) []graph.VertexID {
	for i, w := range s {
		if w == v {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}

// globalIncident returns |Ev|: the number of arcs incident to v in G.
func (p *Partition) globalIncident(v graph.VertexID) int {
	return p.g.InDegree(v) + p.g.OutDegree(v)
}

// IsComplete reports whether fragment i holds every arc incident to v
// (Evi == Ev).
func (p *Partition) IsComplete(i int, v graph.VertexID) bool {
	adj := p.frags[i].Adjacency(v)
	if adj == nil {
		return false
	}
	return adj.LocalDegree() == p.globalIncident(v)
}

// SetVertexWeight records a per-vertex data size (the |Ary| metric of
// the Section-3.1 remark), exposed to cost models via the VData
// variable. Weights default to 1.
func (p *Partition) SetVertexWeight(v graph.VertexID, w float64) {
	if p.weight == nil {
		p.weight = make([]float64, p.g.NumVertices())
		for i := range p.weight {
			p.weight[i] = 1
		}
	}
	p.weight[v] = w
}

// VertexWeight returns v's data size (1 when none was set).
func (p *Partition) VertexWeight(v graph.VertexID) float64 {
	if p.weight == nil {
		return 1
	}
	return p.weight[v]
}

// SetOwner designates fragment i as the preferred compute location of
// v: when i holds a complete copy, that copy is the e-cut node even if
// other fragments also happen to be complete. VMerge and the edge-cut
// constructors use this to pin computation where the paper places it.
func (p *Partition) SetOwner(v graph.VertexID, i int) { p.owner[v] = int32(i) }

// Owner returns the preferred compute fragment of v, or -1.
func (p *Partition) Owner(v graph.VertexID) int { return int(p.owner[v]) }

// CompleteFragment returns the fragment whose copy of v is the e-cut
// node: the designated owner if its copy is complete, otherwise the
// lowest fragment id holding a complete copy; -1 if no copy is
// complete. Exported so the cost tracker can classify v once per
// Refresh instead of once per fragment (Status recomputes it on every
// call).
func (p *Partition) CompleteFragment(v graph.VertexID) int {
	if o := p.owner[v]; o >= 0 && p.IsComplete(int(o), v) {
		return int(o)
	}
	for _, i := range p.copies[v] {
		if p.IsComplete(int(i), v) {
			return int(i)
		}
	}
	return -1
}

// Status classifies the copy of v inside fragment i.
func (p *Partition) Status(i int, v graph.VertexID) Status {
	if !p.frags[i].Has(v) {
		return Absent
	}
	cf := p.CompleteFragment(v)
	switch {
	case cf == i:
		return ECutNode
	case cf >= 0:
		return DummyNode
	default:
		return VCutNode
	}
}
