package composite

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"adp/internal/costmodel"
	"adp/internal/graph"
	"adp/internal/partition"
	"adp/internal/partitioner"
	"adp/internal/refine"
)

// BuildStats reports what a composite build did.
type BuildStats struct {
	Budgets    []float64
	InitShared int // vertices placed identically for every algorithm by Init
	Assigned   int // whole-vertex VAssign placements
	SplitEdges int // per-edge EAssign placements
	Merged     int // MV2H VMerge merges
	Total      time.Duration
}

// Options tunes a composite build.
type Options struct {
	// NaiveDest disables the GetDest greedy set cover: each algorithm
	// independently takes the first fragment that fits, scattering
	// replicas. The fc ablation target.
	NaiveDest bool
}

// ME2H builds a composite hybrid partition for the k algorithms
// modelled by models from the edge-cut partition base (Fig. 6). The
// input partition is not modified.
func ME2H(base *partition.Partition, models []costmodel.CostModel, opts Options) (*Composite, *BuildStats, error) {
	b := newBuilder(base, models, opts)
	start := time.Now()
	b.place(wholeVertex{b})

	// EAssign (lines 14-18): split what remains edge by edge onto the
	// cheapest fragment per algorithm.
	for j := range b.parts {
		for v := 0; v < b.g.NumVertices(); v++ {
			vid := graph.VertexID(v)
			if b.assigned[j][vid] {
				continue
			}
			b.eAssign(j, vid, wholeArcs(b.g, vid))
		}
	}

	// MAssign (line 19) per algorithm.
	for j, p := range b.parts {
		refine.MAssignOnly(p, b.models[j])
	}
	b.stats.Total = time.Since(start)

	comp, err := New(b.g, b.parts)
	if err != nil {
		return nil, nil, err
	}
	return comp, b.stats, nil
}

// ForFamily builds the composite for the family of the baseline that
// produced base: ME2H for edge-cuts, MV2H for vertex-cuts. Hybrid
// baselines have neither to start from.
func ForFamily(fam partitioner.Family, base *partition.Partition, models []costmodel.CostModel, opts Options) (*Composite, *BuildStats, error) {
	switch fam {
	case partitioner.EdgeCutFamily:
		return ME2H(base, models, opts)
	case partitioner.VertexCutFamily:
		return MV2H(base, models, opts)
	}
	return nil, nil, fmt.Errorf("composite: a %v baseline is neither edge-cut nor vertex-cut", fam)
}

// builder carries the shared state of ME2H/MV2H.
type builder struct {
	g        *graph.Graph
	base     *partition.Partition
	models   []costmodel.CostModel
	n        int
	parts    []*partition.Partition
	trs      []*costmodel.Tracker
	budgets  []float64
	assigned []map[graph.VertexID]bool // per algorithm: vertex fully routed (ME2H)
	// copyAssigned tracks per-copy routing for MV2H, keyed by
	// (fragment, vertex).
	copyAssigned []map[uint64]bool
	naiveDest    bool
	stats        *BuildStats
}

// rebuildTrackers re-evaluates every target partition from scratch,
// clearing the drift the light per-vertex refreshes accumulate.
func (b *builder) rebuildTrackers() {
	for j := range b.parts {
		b.trs[j] = costmodel.NewTracker(b.parts[j], b.models[j])
	}
}

func newBuilder(base *partition.Partition, models []costmodel.CostModel, opts Options) *builder {
	g := base.Graph()
	n := base.NumFragments()
	b := &builder{g: g, base: base, models: models, n: n, naiveDest: opts.NaiveDest, stats: &BuildStats{}}
	for _, m := range models {
		// Budget Bj = average ChAj over the INPUT partition (line 1),
		// with 5% slack so that algorithms the input already balances
		// keep their vertices in place (scattering them would trade
		// locality for nothing).
		costs := costmodel.Evaluate(base, m)
		b.budgets = append(b.budgets, 1.05*costmodel.TotalComp(costs)/float64(n))
		p := partition.NewEmpty(g, n)
		b.parts = append(b.parts, p)
		b.trs = append(b.trs, costmodel.NewTracker(p, m))
		b.assigned = append(b.assigned, map[graph.VertexID]bool{})
		b.copyAssigned = append(b.copyAssigned, map[uint64]bool{})
	}
	b.stats.Budgets = b.budgets
	return b
}

// unit is what Init and GetDest place (Fig. 7): ME2H routes whole
// vertices (wholeVertex), MV2H base copies (i, v) with their local arc
// sets (baseCopy). j names the target partition, x a fragment of it.
type unit interface {
	// eligible reports whether (i, v) carries computation to place.
	eligible(i int, v graph.VertexID) bool
	// pending reports whether partition j still needs (i, v) placed.
	pending(j, i int, v graph.VertexID) bool
	// fits probes ChAj(F^j_x ∪ (i, v)) ≤ Bj.
	fits(j, i, x int, v graph.VertexID) bool
	apply(j, i, x int, v graph.VertexID)
	// cost is (i, v)'s hypothetical contribution under model j.
	cost(j, i int, v graph.VertexID) float64
}

// place runs Init and VAssign over the base fragments, each walked in
// the BFS order of procedure Init. Init keeps every eligible unit in
// place for each algorithm whose budget allows — growing the shared
// core Ci; VAssign (lines 8-13) routes the leftovers with GetDest.
func (b *builder) place(u unit) {
	var bfs refine.BFS
	orders := make([][]graph.VertexID, b.n)
	for i := range orders {
		orders[i] = slices.Clone(bfs.Order(b.base, i))
	}
	for i, order := range orders {
		for _, v := range order {
			if !u.eligible(i, v) {
				continue
			}
			shared := 0
			for j := range b.parts {
				if u.fits(j, i, i, v) {
					u.apply(j, i, i, v)
					shared++
				}
			}
			if shared == len(b.parts) {
				b.stats.InitShared++
			}
		}
	}
	b.rebuildTrackers()
	for i, order := range orders {
		for _, v := range order {
			if u.eligible(i, v) {
				b.getDest(u, i, v)
			}
		}
	}
	b.rebuildTrackers()
}

// getDest implements procedure GetDest (Fig. 7): given the set Ov of
// algorithms that still need unit (src, v) placed, repeatedly pick the
// destination fragment accepted by the most remaining algorithms — a
// greedy minimum set cover that minimises v's replication across the
// composite and with it fc. NaiveDest instead lets each algorithm take
// the first fragment that fits.
func (b *builder) getDest(u unit, src int, v graph.VertexID) {
	var ov []int
	for j := range b.parts {
		if u.pending(j, src, v) {
			ov = append(ov, j)
		}
	}
	if b.naiveDest {
		for _, j := range ov {
			for x := 0; x < b.n; x++ {
				if u.fits(j, src, x, v) {
					u.apply(j, src, x, v)
					break
				}
			}
		}
		return
	}
	for len(ov) > 0 {
		bestX, bestCover := -1, 0
		// The source fragment is probed first so that cover ties keep
		// the candidate where its neighbours are (locality).
		for _, x := range b.fragOrder(src) {
			cover := 0
			for _, j := range ov {
				if u.fits(j, src, x, v) {
					cover++
				}
			}
			if cover > bestCover {
				bestX, bestCover = x, cover
			}
		}
		if bestX < 0 {
			// No fragment fits any remaining algorithm within budget.
			// A unit that would fit an empty fragment still goes WHOLE
			// to the currently cheapest one (the budgets hover at the
			// average late in the pass, and shredding it via EAssign
			// would destroy locality for nothing); only genuine
			// over-budget hubs are left for EAssign. Placing for j
			// changes only partition j, so no later j fits either.
			for _, j := range ov {
				// Keep only small units whole: a large one would
				// overload the destination (quadratic-cost algorithms
				// care), so it is left for EAssign to split.
				if u.cost(j, src, v) > 0.25*b.budgets[j] {
					continue
				}
				u.apply(j, src, b.trs[j].ArgminComp(), v)
			}
			return
		}
		var rest []int
		for _, j := range ov {
			if u.fits(j, src, bestX, v) {
				u.apply(j, src, bestX, v)
			} else {
				rest = append(rest, j)
			}
		}
		ov = rest
	}
}

// wholeVertex is ME2H's unit: a vertex with every incident arc, owned
// by its e-cut node in the base.
type wholeVertex struct{ *builder }

func (b wholeVertex) eligible(i int, v graph.VertexID) bool {
	return b.base.Status(i, v) == partition.ECutNode
}

func (b wholeVertex) pending(j, _ int, v graph.VertexID) bool { return !b.assigned[j][v] }

func (b wholeVertex) fits(j, i, x int, v graph.VertexID) bool {
	return b.trs[j].Comp(x)+b.cost(j, i, v) <= b.budgets[j]
}

// apply places v with every incident arc into fragment x of
// partition j.
func (b wholeVertex) apply(j, _, x int, v graph.VertexID) {
	p := b.parts[j]
	for _, w := range b.g.OutNeighbors(v) {
		p.AddArc(x, v, w)
	}
	for _, w := range b.g.InNeighbors(v) {
		p.AddArc(x, w, v)
	}
	if b.g.OutDegree(v) == 0 && b.g.InDegree(v) == 0 {
		p.AddVertex(x, v)
	}
	p.SetOwner(v, x)
	_ = p.SetMaster(v, x)
	b.assigned[j][v] = true
	// Only the subject vertex is refreshed during the bulk build;
	// neighbour contributions drift slightly and are reconciled by
	// rebuildTrackers at the phase boundaries. Exact per-arc refreshes
	// would cost O(deg·n) per assignment and dominate the build (the
	// whole point of ME2H is to be cheaper than k separate refiners).
	b.trs[j].Refresh(v)
	b.stats.Assigned++
}

// cost is v's hypothetical contribution as a complete copy.
func (b wholeVertex) cost(j, _ int, v graph.VertexID) float64 {
	return b.trs[j].HypotheticalComp(v, b.g.InDegree(v), b.g.OutDegree(v), 0, false)
}

// fragOrder yields fragment indices with src first.
func (b *builder) fragOrder(src int) []int {
	order := make([]int, 0, b.n)
	if src >= 0 && src < b.n {
		order = append(order, src)
	}
	for x := 0; x < b.n; x++ {
		if x != src {
			order = append(order, x)
		}
	}
	return order
}

// arcT is one arc to place.
type arcT struct{ u, w graph.VertexID }

// wholeArcs lists every incident arc of v (canonical single direction
// for undirected graphs).
func wholeArcs(g *graph.Graph, v graph.VertexID) []arcT {
	var arcs []arcT
	for _, w := range g.OutNeighbors(v) {
		if g.Undirected() && v > w {
			continue
		}
		arcs = append(arcs, arcT{v, w})
	}
	if !g.Undirected() {
		for _, w := range g.InNeighbors(v) {
			arcs = append(arcs, arcT{w, v})
		}
	} else {
		for _, w := range g.InNeighbors(v) {
			if w < v {
				arcs = append(arcs, arcT{w, v})
			}
		}
	}
	sort.Slice(arcs, func(a, c int) bool {
		if arcs[a].u != arcs[c].u {
			return arcs[a].u < arcs[c].u
		}
		return arcs[a].w < arcs[c].w
	})
	return arcs
}

// eAssign splits v's arcs one by one onto the cheapest fragment of
// partition j.
func (b *builder) eAssign(j int, v graph.VertexID, arcs []arcT) {
	p := b.parts[j]
	tr := b.trs[j]
	for _, a := range arcs {
		p.AddEdge(tr.ArgminComp(), a.u, a.w)
		tr.RefreshSet([]graph.VertexID{a.u, a.w})
		b.stats.SplitEdges++
	}
	if len(arcs) == 0 && len(p.Copies(v)) == 0 {
		p.AddVertex(int(v)%b.n, v)
	}
	b.assigned[j][v] = true
}
