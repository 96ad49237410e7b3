package costmodel

import (
	"adp/internal/graph"
	"adp/internal/partition"
	"adp/internal/pool"
)

// FragCost is the estimated cost of one fragment under a cost model:
// ChA(Fi) (computation over non-dummy copies) and CgA(Fi)
// (communication over border masters), per Eqs. (2)–(3).
type FragCost struct {
	Comp float64
	Comm float64
}

// Total returns CA(Fi) = ChA(Fi) + CgA(Fi) (Eq. 1).
func (c FragCost) Total() float64 { return c.Comp + c.Comm }

// Evaluate computes the per-fragment costs of algorithm model m on
// partition p by full enumeration, one pool item per fragment. Each
// item accumulates into its own slot over the fragment's sorted
// vertex order, so the result is deterministic for any worker count.
// The partition must not be mutated concurrently.
func Evaluate(p *partition.Partition, m CostModel) []FragCost {
	costs := make([]FragCost, p.NumFragments())
	pool.Default().RunChunks(p.NumFragments(), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			f := p.Fragment(i)
			f.Vertices(func(v graph.VertexID, _ *partition.Adj) {
				switch p.Status(i, v) {
				case partition.ECutNode, partition.VCutNode:
					costs[i].Comp += m.H.Eval(Extract(p, i, v))
				}
				if p.IsBorder(v) && p.Master(v) == i {
					costs[i].Comm += m.G.Eval(Extract(p, i, v))
				}
			})
		}
	})
	return costs
}

// ParallelCost returns max_i CA(Fi): the quantity ADP minimises.
func ParallelCost(costs []FragCost) float64 {
	max := 0.0
	for _, c := range costs {
		if t := c.Total(); t > max {
			max = t
		}
	}
	return max
}

// TotalComp sums ChA over fragments.
func TotalComp(costs []FragCost) float64 {
	s := 0.0
	for _, c := range costs {
		s += c.Comp
	}
	return s
}

// LambdaCost returns the cost balance factor λA: the smallest λ with
// CA(Fi) ≤ (1+λ)·avg for all i (Section 3.1, "balance factor
// revised").
func LambdaCost(costs []FragCost) float64 {
	xs := make([]float64, len(costs))
	for i, c := range costs {
		xs[i] = c.Total()
	}
	return partition.BalanceFactor(xs)
}

// Tracker maintains per-fragment Comp/Comm costs of a partition under
// one cost model incrementally while the partition is mutated. The
// refiners perform O(|V|+|E|) mutations; recomputing Evaluate after
// each would be quadratic.
//
// Protocol: after every AddArc/RemoveArc/AddEdge/RemoveEdge touching
// vertices u,v call Refresh(u, v); after SetMaster(v) or SetOwner(v)
// call Refresh(v). Refresh recomputes those vertices' contributions in
// all fragments (a vertex's own variables depend only on its own
// adjacency, copies and status, so this is exact).
//
// Representation: per-fragment contributions live in dense slabs
// indexed by a compact vertex remap (fragSlab) instead of hash maps,
// and cost functions are lowered by Compile at construction, so the
// refinement hot path — Refresh, Contribution, CommAt,
// HypotheticalComp — performs no map probes, no hashing, and no
// allocation. A stored value of 0 means "no contribution", mirroring
// the retired map's delete-on-zero semantics so the accumulation
// sequence on comp/comm (and therefore every float result) is bitwise
// identical to the map-backed implementation.
type Tracker struct {
	p     *partition.Partition
	m     CostModel // compiled at construction
	comp  []float64
	comm  []float64
	slabs []fragSlab
	// base caches the graph-derived variables that cannot change while
	// the tracker is live (the graph is immutable during refinement):
	// DGIn, DGOut and AvgDeg. extract and HypotheticalComp start from
	// it instead of re-reading the graph on every probe. Mutable
	// per-vertex state (local degrees, replication, status, VData) is
	// filled in fresh each time.
	base []Vars
	// stamp/epoch implement RefreshSet's first-occurrence dedup without
	// a per-call set allocation.
	stamp []uint64
	epoch uint64
}

// fragSlab is one fragment's dense contribution store. slot maps a
// vertex id to a slab index (-1 when the vertex never had a tracked
// contribution here); the slabs grow by appending when refinement
// moves a new vertex into the fragment. On a compiled fragment the
// remap starts as the CSR local-id array (compact); otherwise slots
// are graph-wide vertex ids.
type fragSlab struct {
	slot   []int32
	comp   []float64
	comm   []float64
	vars   []Vars // cached Extract result, valid while varsOK
	varsOK []bool
}

func (s *fragSlab) init(f *partition.Fragment, numVertices int) {
	if remap, n := f.LocalRemap(numVertices); remap != nil {
		s.slot = remap
		s.grow(n)
		return
	}
	s.slot = make([]int32, numVertices)
	for v := range s.slot {
		s.slot[v] = int32(v)
	}
	s.grow(numVertices)
}

func (s *fragSlab) grow(n int) {
	for len(s.comp) < n {
		s.comp = append(s.comp, 0)
		s.comm = append(s.comm, 0)
		s.vars = append(s.vars, Vars{})
		s.varsOK = append(s.varsOK, false)
	}
}

// slotOf returns v's slab index, or -1 when v has never been tracked
// in this fragment.
func (s *fragSlab) slotOf(v graph.VertexID) int32 {
	if int(v) >= len(s.slot) {
		return -1
	}
	return s.slot[v]
}

// ensure returns v's slab index, appending a fresh slot when v enters
// the fragment for the first time.
func (s *fragSlab) ensure(v graph.VertexID) int32 {
	if l := s.slot[v]; l >= 0 {
		return l
	}
	l := int32(len(s.comp))
	s.slot[v] = l
	s.grow(len(s.comp) + 1)
	return l
}

// NewTracker evaluates p fully and returns a tracker positioned on it.
// The cost functions are compiled (see Compile): learned Models run as
// flat term programs on every subsequent probe.
func NewTracker(p *partition.Partition, m CostModel) *Tracker {
	g := p.Graph()
	t := &Tracker{
		p:     p,
		m:     CompileCostModel(m),
		comp:  make([]float64, p.NumFragments()),
		comm:  make([]float64, p.NumFragments()),
		slabs: make([]fragSlab, p.NumFragments()),
		base:  make([]Vars, g.NumVertices()),
		stamp: make([]uint64, g.NumVertices()),
	}
	avg := g.AvgDegree()
	for v := range t.base {
		t.base[v][DGIn] = float64(g.InDegree(graph.VertexID(v)))
		t.base[v][DGOut] = float64(g.OutDegree(graph.VertexID(v)))
		t.base[v][AvgDeg] = avg
	}
	for i := range t.slabs {
		t.slabs[i].init(p.Fragment(i), g.NumVertices())
	}
	for i := 0; i < p.NumFragments(); i++ {
		f := p.Fragment(i)
		f.Vertices(func(v graph.VertexID, _ *partition.Adj) {
			t.refreshAt(i, v, p.CompleteFragment(v))
		})
	}
	return t
}

// Partition returns the partition the tracker is positioned on.
func (t *Tracker) Partition() *partition.Partition { return t.p }

// Comp returns the tracked ChA(Fi).
func (t *Tracker) Comp(i int) float64 { return t.comp[i] }

// Comm returns the tracked CgA(Fi).
func (t *Tracker) Comm(i int) float64 { return t.comm[i] }

// Total returns the tracked CA(Fi).
func (t *Tracker) Total(i int) float64 { return t.comp[i] + t.comm[i] }

// ArgminComp returns the fragment with the lowest tracked ChA, the
// lowest id among ties — where ESplit and EAssign send an arc.
func (t *Tracker) ArgminComp() int {
	best := 0
	for i := 1; i < len(t.comp); i++ {
		if t.comp[i] < t.comp[best] {
			best = i
		}
	}
	return best
}

// Refresh recomputes the contribution of each vertex in every
// fragment. Cost per vertex: one completeness classification
// (CompleteFragment) plus an O(1) slab update per fragment — no map
// probes and no allocation.
func (t *Tracker) Refresh(vs ...graph.VertexID) {
	for _, v := range vs {
		cf := t.p.CompleteFragment(v)
		for i := 0; i < t.p.NumFragments(); i++ {
			t.refreshAt(i, v, cf)
		}
	}
}

// RefreshSet refreshes each distinct vertex of vs once, in
// first-occurrence order — the dedup the refiners' touched lists need,
// performed with a per-vertex epoch stamp instead of a per-call set
// allocation.
func (t *Tracker) RefreshSet(vs []graph.VertexID) {
	t.epoch++
	for _, v := range vs {
		if t.stamp[v] == t.epoch {
			continue
		}
		t.stamp[v] = t.epoch
		t.Refresh(v)
	}
}

// extract rebuilds X(v) for fragment i from the cached base vector —
// value-identical to Extract, without re-reading the graph. cf is
// CompleteFragment(v); the copy is an e-cut node exactly when cf == i.
func (t *Tracker) extract(i int, v graph.VertexID, f *partition.Fragment, cf int) Vars {
	x := t.base[v]
	x[Repl] = float64(t.p.Replication(v))
	if adj := f.Adjacency(v); adj != nil {
		x[DLIn] = float64(len(adj.In))
		x[DLOut] = float64(len(adj.Out))
	}
	if cf != i {
		x[NotECut] = 1
	}
	x[VData] = t.p.VertexWeight(v)
	return x
}

// refreshAt replays the map-backed accumulation sequence on the dense
// slab: subtract the stored (nonzero) contributions, then store and
// add the recomputed ones, zero meaning "none". cf is the caller's
// CompleteFragment(v).
func (t *Tracker) refreshAt(i int, v graph.VertexID, cf int) {
	s := &t.slabs[i]
	f := t.p.Fragment(i)
	var nc, nm float64
	slot := int32(-1)
	if f.Has(v) {
		slot = s.ensure(v)
		x := t.extract(i, v, f, cf)
		s.vars[slot] = x
		s.varsOK[slot] = true
		if cf == i || cf < 0 { // ECutNode or VCutNode; dummies compute nothing
			nc = t.m.H.Eval(x)
		}
		if t.p.IsBorder(v) && t.p.Master(v) == i {
			nm = t.m.G.Eval(x)
		}
	} else {
		slot = s.slotOf(v)
		if slot < 0 {
			return
		}
		s.varsOK[slot] = false
	}
	if old := s.comp[slot]; old != 0 {
		t.comp[i] -= old
	}
	if old := s.comm[slot]; old != 0 {
		t.comm[i] -= old
	}
	s.comp[slot], s.comm[slot] = 0, 0
	if nc != 0 {
		s.comp[slot] = nc
		t.comp[i] += nc
	}
	if nm != 0 {
		s.comm[slot] = nm
		t.comm[i] += nm
	}
}

// Contribution returns v's current tracked Comp contribution inside
// fragment i (0 when absent or dummy).
func (t *Tracker) Contribution(i int, v graph.VertexID) float64 {
	s := &t.slabs[i]
	slot := s.slotOf(v)
	if slot < 0 {
		return 0
	}
	return s.comp[slot]
}

// CommAt evaluates gA for v as if its master were in fragment i — the
// g_i(v) of MAssign's Eq. (5). Served from the slab's cached Vars
// when v's copy is current (every Refresh rewrites it), falling back
// to a full Extract otherwise.
func (t *Tracker) CommAt(i int, v graph.VertexID) float64 {
	s := &t.slabs[i]
	if slot := s.slotOf(v); slot >= 0 && s.varsOK[slot] {
		return t.m.G.Eval(s.vars[slot])
	}
	if !t.p.Fragment(i).Has(v) {
		return 0
	}
	return t.m.G.Eval(Extract(t.p, i, v))
}

// HypotheticalComp evaluates hA for vertex v as if it lived in
// fragment i with the given local degrees — the ChA(Fj ∪ {(v,E')})
// probe of EMigrate/VMigrate, approximated by the moved vertex's own
// contribution (neighbour second-order deltas are reconciled by the
// next Refresh). This is the delta entry point of the probe plane:
// only the variables the probe actually perturbs are written over the
// cached base vector; the graph-derived ones are not re-extracted.
func (t *Tracker) HypotheticalComp(v graph.VertexID, localIn, localOut int, repl int, notECut bool) float64 {
	x := t.base[v]
	x[DLIn] = float64(localIn)
	x[DLOut] = float64(localOut)
	x[Repl] = float64(repl)
	if notECut {
		x[NotECut] = 1
	}
	x[VData] = t.p.VertexWeight(v)
	return t.m.H.Eval(x)
}
