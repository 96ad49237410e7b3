package refine

import (
	"context"
	"sort"

	"adp/internal/costmodel"
	"adp/internal/graph"
	"adp/internal/partition"
)

// V2H adjusts the vertex-cut partition p into a hybrid partition that
// reduces the parallel cost of the algorithm modelled by m (Fig. 4).
// The partition is refined in place.
func V2H(p *partition.Partition, m costmodel.CostModel, cfg Config) *Stats {
	stats, _ := V2HCtx(context.Background(), p, m, cfg)
	return stats
}

// V2HCtx is V2H under a context; see E2HCtx for the abort contract.
func V2HCtx(ctx context.Context, p *partition.Partition, m costmodel.CostModel, cfg Config) (*Stats, error) {
	return v2h.run(ctx, p, m, cfg)
}

// v2h is VMigrate for the migrate phase — a candidate may only move
// onto an underloaded fragment that already holds a copy of it, which
// removes one replica — and VMerge for phase 2; its migrate leftovers
// stay where they are.
var v2h = refiner{vMigrateProbe, vMigrateApply, vMerge}

// vMigrateProbe: fragment j must already hold a copy of v, and taking
// over Fi's arcs of v must keep j within budget. The hypothetical
// contribution merges the two copies' local degrees (j's existing
// contribution is already in Comp(j), so only the delta is added).
func vMigrateProbe(tr *costmodel.Tracker, c candidate, j int, budget float64) bool {
	p := tr.Partition()
	fj := p.Fragment(j)
	if !fj.Has(c.v) {
		return false
	}
	src := p.Fragment(c.frag).Adjacency(c.v)
	dst := fj.Adjacency(c.v)
	if src == nil || dst == nil {
		return false
	}
	merged := tr.HypotheticalComp(c.v,
		len(src.In)+len(dst.In), len(src.Out)+len(dst.Out),
		p.Replication(c.v)-1, true)
	delta := merged - tr.Contribution(j, c.v)
	return tr.Comp(j)+delta <= budget
}

// vMigrateApply moves every local arc of v from the source fragment
// onto the existing copy at j, reducing v's replication by one. Arcs
// another e-cut node of the source still needs are kept, exactly as in
// EMigrate.
func vMigrateApply(tr *costmodel.Tracker, c candidate, j int, stats *Stats) {
	touched := moveVertexArcs(tr.Partition(), c.v, c.frag, j)
	if touched == nil {
		return
	}
	tr.RefreshSet(touched)
	stats.Migrated++
}

// vMerge is phase 2 of V2H (lines 11-14): iteratively turn v-cut nodes
// of underloaded fragments into e-cut nodes by pulling in their missing
// arcs, until no valid merge remains (at most 8 passes).
func vMerge(ctx context.Context, tr *costmodel.Tracker, _ []candidate, budget float64, stats *Stats) error {
	for pass := 0; pass < 8; pass++ {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		if vMergePass(tr, budget, stats) == 0 {
			break
		}
	}
	return nil
}

// vMergePass scans underloaded fragments in id order and merges their
// v-cut nodes into e-cut nodes where the budget allows. Missing arcs
// are migrated from overloaded fragments (relieving them) and
// replicated from underloaded ones (leaving them untouched) — the
// "migrate or replicate based on the respective costs" rule.
// Returns the number of merges performed.
func vMergePass(tr *costmodel.Tracker, budget float64, stats *Stats) int {
	p := tr.Partition()
	g := p.Graph()
	merges := 0
	for i := 0; i < p.NumFragments(); i++ {
		if tr.Comp(i) > budget {
			continue
		}
		f := p.Fragment(i)
		for _, v := range f.SortedVertices() {
			if p.Status(i, v) != partition.VCutNode {
				continue
			}
			// ChA(Fi ∪ (v, Ēvi)) ≤ B probe: v as a complete copy.
			h := tr.HypotheticalComp(v, g.InDegree(v), g.OutDegree(v), p.Replication(v), false)
			if tr.Comp(i)-tr.Contribution(i, v)+h > budget {
				continue
			}
			touched := mergeMissingArcs(tr, i, v, budget)
			p.SetOwner(v, i)
			touched = append(touched, v)
			tr.RefreshSet(touched)
			stats.Merged++
			merges++
		}
	}
	return merges
}

// mergeMissingArcs brings every arc of Ev missing from fragment i into
// i. Arcs are migrated away from fragments above budget and replicated
// from the rest ("migrate or replicate based on the respective
// costs"). Undirected pairs move atomically.
func mergeMissingArcs(tr *costmodel.Tracker, i int, v graph.VertexID, budget float64) []graph.VertexID {
	p := tr.Partition()
	g := p.Graph()
	undirected := g.Undirected()
	var touched []graph.VertexID
	pull := func(u, w graph.VertexID) {
		if p.Fragment(i).HasArc(u, w) {
			return
		}
		other := u
		if other == v {
			other = w
		}
		// Decide migration sources before mutating: adding the arc to
		// i can flip designations.
		var removeFrom []int
		for k := 0; k < p.NumFragments(); k++ {
			if k == i || !p.Fragment(k).HasArc(u, w) {
				continue
			}
			if tr.Comp(k) > budget && arcRemovableFrom(p, k, other) &&
				p.Status(k, v) != partition.ECutNode {
				removeFrom = append(removeFrom, k)
			}
		}
		if undirected {
			p.AddEdge(i, u, w)
			for _, k := range removeFrom {
				p.RemoveEdge(k, u, w)
			}
		} else {
			p.AddArc(i, u, w)
			for _, k := range removeFrom {
				p.RemoveArc(k, u, w)
			}
		}
		touched = append(touched, other)
	}
	for _, w := range g.OutNeighbors(v) {
		pull(v, w)
	}
	if !undirected {
		for _, w := range g.InNeighbors(v) {
			pull(w, v)
		}
	}
	sort.Slice(touched, func(a, b int) bool { return touched[a] < touched[b] })
	return touched
}
