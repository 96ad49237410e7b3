package composite

import (
	"adp/internal/costmodel"
	"adp/internal/graph"
	"adp/internal/partition"
	"adp/internal/refine"
)

// MV2H builds a composite hybrid partition for the k algorithms
// modelled by models from the vertex-cut partition base (Section 6.3).
// The unit of assignment is a vertex copy with its base-local arc set
// (v, Evi); after assignment each target partition gets a VMerge sweep
// (turning v-cut nodes into e-cut nodes within budget) and MAssign.
// The input partition is not modified.
func MV2H(base *partition.Partition, models []costmodel.CostModel, opts Options) (*Composite, *BuildStats, error) {
	b := newBuilder(base, models, opts)
	u := baseCopy{b, arcsOnce(base)}
	return b.build(u, func(t *target) {
		// Residuals: split edge by edge, then VMerge.
		for i := 0; i < b.n; i++ {
			for _, v := range base.Fragment(i).SortedVertices() {
				if isComputeCopy(base, i, v) && t.at[u.key(i, v)] < 0 {
					t.arcs = localArcs(t.arcs[:0], base, i, v)
					b.eAssign(t, v, t.arcs)
				}
			}
		}
		t.boundary()
		t.merged = refine.VMergeSweep(t.tr, t.budget)
	})
}

// isComputeCopy reports whether the copy of v in base fragment i
// carries computation (e-cut node or v-cut node).
func isComputeCopy(base *partition.Partition, i int, v graph.VertexID) bool {
	s := base.Status(i, v)
	return s == partition.ECutNode || s == partition.VCutNode
}

// baseCopy is MV2H's unit: the copy of v in base fragment i with its
// local arc set (v, Evi). once records that the base stores every arc
// in one fragment only, as a vertex-cut does.
type baseCopy struct {
	*builder
	once bool
}

// arcsOnce reports whether base stores each arc of its graph in exactly
// one fragment (it stores each at least once).
func arcsOnce(base *partition.Partition) bool {
	var arcs int64
	for i := 0; i < base.NumFragments(); i++ {
		arcs += int64(base.Fragment(i).NumArcs())
	}
	return arcs == base.Graph().NumEdges()
}

func (b baseCopy) eligible(i int, v graph.VertexID) bool { return isComputeCopy(b.base, i, v) }

func (b baseCopy) keys() int                       { return b.n * b.g.NumVertices() }
func (b baseCopy) key(i int, v graph.VertexID) int { return i*b.g.NumVertices() + int(v) }

// fits probes ChAj(F^j_x ∪ (v,Evi)) ≤ Bj. Where F^j_x holds no copy
// of v the copy's contribution is c; otherwise it is re-evaluated
// counting the arcs v already has there.
func (b baseCopy) fits(t *target, i, x int, v graph.VertexID, c float64) bool {
	adj := b.base.Fragment(i).Adjacency(v)
	if adj == nil {
		return true
	}
	h, dst := c, t.led.at(x, v)
	if dst.in >= 0 {
		h = t.tr.HypotheticalComp(v, len(adj.In)+int(dst.in), len(adj.Out)+int(dst.out), b.base.Replication(v), !b.base.IsComplete(i, v))
	}
	delta := h - dst.comp
	return t.led.comp[x]+delta <= t.budget
}

// place adds base copy (i,v) — its local arc set — to fragment x of t's
// partition, skipping the arcs x already holds.
func (b baseCopy) place(t *target, i, x int, v graph.VertexID) {
	adj := b.base.Fragment(i).Adjacency(v)
	if adj != nil {
		for _, w := range adj.Out {
			if !b.held(t, i, x, v, w) {
				t.addArc(x, v, w)
			}
		}
		for _, w := range adj.In {
			if w != v && !b.held(t, i, x, w, v) {
				t.addArc(x, w, v)
			}
		}
	}
	if adj == nil || adj.LocalDegree() == 0 {
		t.addVertex(x, v)
	}
}

// held reports whether fragment x of t holds the arc (a, c) of base
// fragment i: some unit placed in x carries it, the copy of a or of c
// in a base fragment storing the arc — i, or, when the base repeats
// arcs, another one.
func (b baseCopy) held(t *target, i, x int, a, c graph.VertexID) bool {
	if int(t.at[b.key(i, a)]) == x || int(t.at[b.key(i, c)]) == x {
		return true
	}
	if b.once {
		return false
	}
	for _, j := range b.base.Copies(a) {
		if int(j) != i && (int(t.at[b.key(int(j), a)]) == x || int(t.at[b.key(int(j), c)]) == x) &&
			b.base.Fragment(int(j)).HasArc(a, c) {
			return true
		}
	}
	return false
}

// owner is -1: placing a base copy fixes neither owner nor master, and
// masters stay where the build first touched each vertex.
func (b baseCopy) owner(*target, graph.VertexID) int { return -1 }

func (b baseCopy) settle(*target) {}

// cost is base copy (i,v)'s hypothetical contribution on its own.
func (b baseCopy) cost(t *target, i int, v graph.VertexID) float64 {
	adj := b.base.Fragment(i).Adjacency(v)
	if adj == nil {
		return 0
	}
	return t.tr.HypotheticalComp(v, len(adj.In), len(adj.Out), b.base.Replication(v), !b.base.IsComplete(i, v))
}

// localArcs appends the base-local incident arcs of copy (i,v),
// canonical single direction for undirected graphs, to arcs.
func localArcs(arcs []arcT, base *partition.Partition, i int, v graph.VertexID) []arcT {
	adj := base.Fragment(i).Adjacency(v)
	if adj == nil {
		return arcs
	}
	undirected := base.Graph().Undirected()
	for _, w := range adj.Out {
		if !undirected || v <= w {
			arcs = append(arcs, arcT{v, w})
		}
	}
	for _, w := range adj.In {
		if !undirected || w < v {
			arcs = append(arcs, arcT{w, v})
		}
	}
	return arcs
}
