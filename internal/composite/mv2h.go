package composite

import (
	"time"

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
	start := time.Now()
	b.place(baseCopy{b})

	// Residuals: split edge by edge.
	for j := range b.parts {
		for i := 0; i < b.n; i++ {
			for _, v := range base.Fragment(i).SortedVertices() {
				if !isComputeCopy(base, i, v) || b.localAssigned(j, i, v) {
					continue
				}
				b.eAssign(j, v, localArcs(base, i, v))
				b.markLocal(j, i, v)
			}
		}
	}

	// VMerge + MAssign per algorithm.
	for j, p := range b.parts {
		b.stats.Merged += refine.VMergeSweep(p, b.models[j], b.budgets[j])
		refine.MAssignOnly(p, b.models[j])
	}
	b.stats.Total = time.Since(start)

	comp, err := New(b.g, b.parts)
	if err != nil {
		return nil, nil, err
	}
	return comp, b.stats, nil
}

// isComputeCopy reports whether the copy of v in base fragment i
// carries computation (e-cut node or v-cut node).
func isComputeCopy(base *partition.Partition, i int, v graph.VertexID) bool {
	s := base.Status(i, v)
	return s == partition.ECutNode || s == partition.VCutNode
}

func (b *builder) localAssigned(j, i int, v graph.VertexID) bool {
	return b.copyAssigned[j][copyKey(i, v)]
}

func (b *builder) markLocal(j, i int, v graph.VertexID) {
	b.copyAssigned[j][copyKey(i, v)] = true
}

func copyKey(i int, v graph.VertexID) uint64 { return uint64(i)<<32 | uint64(v) }

// baseCopy is MV2H's unit: the copy of v in base fragment i with its
// local arc set (v, Evi).
type baseCopy struct{ *builder }

func (b baseCopy) eligible(i int, v graph.VertexID) bool { return isComputeCopy(b.base, i, v) }

func (b baseCopy) pending(j, i int, v graph.VertexID) bool { return !b.localAssigned(j, i, v) }

// fits probes ChAj(F^j_x ∪ (v,Evi)) ≤ Bj, counting the arcs v already
// has in F^j_x.
func (b baseCopy) fits(j, i, x int, v graph.VertexID) bool {
	adj := b.base.Fragment(i).Adjacency(v)
	if adj == nil {
		return true
	}
	dstAdj := b.parts[j].Fragment(x).Adjacency(v)
	in, out := len(adj.In), len(adj.Out)
	if dstAdj != nil {
		in += len(dstAdj.In)
		out += len(dstAdj.Out)
	}
	h := b.trs[j].HypotheticalComp(v, in, out, b.base.Replication(v), !b.base.IsComplete(i, v))
	delta := h - b.trs[j].Contribution(x, v)
	return b.trs[j].Comp(x)+delta <= b.budgets[j]
}

// apply places base copy (i,v) — its local arc set — into fragment x
// of partition j.
func (b baseCopy) apply(j, i, x int, v graph.VertexID) {
	p := b.parts[j]
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
	b.markLocal(j, i, v)
	// Light refresh; see wholeVertex.apply.
	b.trs[j].Refresh(v)
	b.stats.Assigned++
}

// cost is base copy (i,v)'s hypothetical contribution on its own.
func (b baseCopy) cost(j, i int, v graph.VertexID) float64 {
	adj := b.base.Fragment(i).Adjacency(v)
	if adj == nil {
		return 0
	}
	return b.trs[j].HypotheticalComp(v, len(adj.In), len(adj.Out), b.base.Replication(v), !b.base.IsComplete(i, v))
}

// localArcs lists the base-local incident arcs of copy (i,v),
// canonical single direction for undirected graphs.
func localArcs(base *partition.Partition, i int, v graph.VertexID) []arcT {
	adj := base.Fragment(i).Adjacency(v)
	if adj == nil {
		return nil
	}
	g := base.Graph()
	var arcs []arcT
	for _, w := range adj.Out {
		if g.Undirected() && v > w {
			continue
		}
		arcs = append(arcs, arcT{v, w})
	}
	for _, w := range adj.In {
		if g.Undirected() {
			if w < v {
				arcs = append(arcs, arcT{w, v})
			}
			continue
		}
		arcs = append(arcs, arcT{w, v})
	}
	return arcs
}
