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
	u := baseCopy{b}
	return b.build(u, func(t *target) {
		// Residuals: split edge by edge, then VMerge.
		for i := 0; i < b.n; i++ {
			for _, v := range base.Fragment(i).SortedVertices() {
				if isComputeCopy(base, i, v) && !t.routed[u.key(i, v)] {
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
// local arc set (v, Evi).
type baseCopy struct{ *builder }

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
	h := c
	if dstAdj := t.part.Fragment(x).Adjacency(v); dstAdj != nil {
		h = t.tr.HypotheticalComp(v, len(adj.In)+len(dstAdj.In), len(adj.Out)+len(dstAdj.Out), b.base.Replication(v), !b.base.IsComplete(i, v))
	}
	delta := h - t.tr.Contribution(x, v)
	return t.tr.Comp(x)+delta <= t.budget
}

// apply places base copy (i,v) — its local arc set — into fragment x
// of t's partition.
func (b baseCopy) apply(t *target, i, x int, v graph.VertexID) {
	p := t.part
	adj := b.base.Fragment(i).Adjacency(v)
	if adj != nil {
		for _, w := range adj.Out {
			p.AddArc(x, v, w)
		}
		for _, w := range adj.In {
			p.AddArc(x, w, v)
		}
	}
	if adj == nil || adj.LocalDegree() == 0 {
		p.AddVertex(x, v)
	}
	// Light refresh; see wholeVertex.apply.
	t.tr.Refresh(v)
}

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
