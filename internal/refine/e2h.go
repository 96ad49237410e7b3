package refine

import (
	"cmp"
	"context"
	"slices"

	"adp/internal/costmodel"
	"adp/internal/graph"
	"adp/internal/partition"
)

// E2H extends the edge-cut partition p into a hybrid partition that
// reduces the parallel cost of the algorithm modelled by m (Fig. 3).
// The partition is refined in place.
func E2H(p *partition.Partition, m costmodel.CostModel, cfg Config) *Stats {
	stats, _ := E2HCtx(context.Background(), p, m, cfg)
	return stats
}

// E2HCtx is E2H under a context. Cancellation is observed between
// candidates, supersteps and phases; the partial Stats and ctx error
// are returned, and the partially refined partition remains valid.
func E2HCtx(ctx context.Context, p *partition.Partition, m costmodel.CostModel, cfg Config) (*Stats, error) {
	return e2h.run(ctx, p, m, cfg)
}

// e2h is EMigrate for the migrate phase and ESplit for phase 2.
var e2h = refiner{eMigrateProbe, eMigrateApply, eSplitLeftovers}

// eMigrateProbe evaluates whether candidate c fits fragment j within
// the budget: ChA(Fj ∪ {(v, Evi)}) ≤ B, approximated by Fj's tracked
// cost plus the candidate's hypothetical contribution as a complete
// copy (its local degrees become its global degrees).
func eMigrateProbe(tr *costmodel.Tracker, c candidate, j int, budget float64) bool {
	p := tr.Partition()
	g := p.Graph()
	h := tr.HypotheticalComp(c.v, g.InDegree(c.v), g.OutDegree(c.v), p.Replication(c.v), false)
	return tr.Comp(j)+h <= budget
}

// eMigrateApply performs the accepted migration.
func eMigrateApply(tr *costmodel.Tracker, c candidate, j int, stats *Stats) {
	tr.RefreshSet(moveECutVertex(tr.Partition(), c.v, c.frag, j))
	stats.Migrated++
}

// eSplitLeftovers is phase 2 of E2H: every candidate EMigrate could not
// place is split (lines 11-14).
func eSplitLeftovers(ctx context.Context, tr *costmodel.Tracker, leftover []candidate, _ float64, stats *Stats) error {
	for _, c := range leftover {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		eSplit(tr, c, stats)
	}
	return nil
}

// eSplit cuts the remaining candidate into v-cut pieces, moving its
// incident arcs one by one to the fragment with the minimum
// computational cost (lines 11-14).
func eSplit(tr *costmodel.Tracker, c candidate, stats *Stats) {
	p := tr.Partition()
	adj := p.Fragment(c.frag).Adjacency(c.v)
	if adj == nil {
		return
	}
	type arc struct{ u, w graph.VertexID }
	var arcs []arc
	for _, w := range adj.Out {
		arcs = append(arcs, arc{c.v, w})
	}
	// For undirected graphs the Out list already names every incident
	// edge; the symmetric pair moves together inside moveSingleArc.
	if !p.Graph().Undirected() {
		for _, w := range adj.In {
			arcs = append(arcs, arc{w, c.v})
		}
	}
	slices.SortFunc(arcs, func(a, b arc) int {
		if c := cmp.Compare(a.u, b.u); c != 0 {
			return c
		}
		return cmp.Compare(a.w, b.w)
	})
	for _, a := range arcs {
		t := tr.ArgminComp()
		if t == c.frag {
			continue // already on the cheapest fragment
		}
		tr.RefreshSet(moveSingleArc(p, c.frag, t, a.u, a.w, c.v))
		stats.SplitEdges++
	}
}

// mAssign implements the MAssign phase (Eq. 5): border masters are
// re-chosen one pass in ascending vertex order; each vertex's master
// goes to the copy minimising ChA(Fj) + CgA(Fj) + gjA(v), with CgA
// accumulated as assignments are made.
func mAssign(tr *costmodel.Tracker) int {
	p := tr.Partition()
	n := p.NumFragments()
	comm := make([]float64, n)
	moved := 0
	type choice struct {
		v    graph.VertexID
		frag int
	}
	var choices []choice
	for v := 0; v < p.Graph().NumVertices(); v++ {
		vid := graph.VertexID(v)
		if !p.IsBorder(vid) {
			continue
		}
		best, bestCost := -1, 0.0
		for _, cf := range p.Copies(vid) {
			j := int(cf)
			cost := tr.Comp(j) + comm[j] + tr.CommAt(j, vid)
			if best < 0 || cost < bestCost {
				best, bestCost = j, cost
			}
		}
		comm[best] += tr.CommAt(best, vid)
		if p.Master(vid) != best {
			moved++
		}
		choices = append(choices, choice{vid, best})
	}
	for _, c := range choices {
		_ = p.SetMaster(c.v, c.frag)
		tr.Refresh(c.v)
	}
	return moved
}
