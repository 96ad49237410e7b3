package composite

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"adp/internal/costmodel"
	"adp/internal/graph"
	"adp/internal/partition"
	"adp/internal/partitioner"
	"adp/internal/pool"
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
	// EAssign (lines 14-18): split what remains edge by edge onto the
	// cheapest fragment.
	return b.build(wholeVertex{b}, func(t *target) {
		for v := 0; v < b.g.NumVertices(); v++ {
			vid := graph.VertexID(v)
			if !t.routed[v] {
				t.arcs = wholeArcs(t.arcs[:0], b.g, vid)
				b.eAssign(t, vid, t.arcs)
			}
		}
	})
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

// target is one algorithm's side of a build: everything ME2H/MV2H read
// and write for algorithm j except the set cover GetDest shares.
type target struct {
	model  costmodel.CostModel
	budget float64
	part   *partition.Partition
	tr     *costmodel.Tracker
	// routed[unit.key(i, v)] is set once (i, v) is placed whole.
	routed []bool
	// kept[p] is set when Init kept builder.units[p] in its base fragment.
	kept []bool
	arcs []arcT // split scratch
	// cost is GetDest's scratch: unit.cost of the unit being placed,
	// evaluated once per unit rather than once per probed fragment.
	cost float64

	assigned, splitEdges, merged int
}

// position is one eligible unit (i, v) of the base.
type position struct {
	i int
	v graph.VertexID
}

// builder carries the shared state of ME2H/MV2H.
type builder struct {
	g       *graph.Graph
	base    *partition.Partition
	n       int
	targets []*target
	// units lists the eligible units in the BFS order of procedure Init,
	// base fragment by base fragment.
	units     []position
	naiveDest bool
	// GetDest scratch: the algorithms still pending and the fragment
	// probe order.
	ov    []*target
	order []int
}

func newBuilder(base *partition.Partition, models []costmodel.CostModel, opts Options) *builder {
	b := &builder{g: base.Graph(), base: base, n: base.NumFragments(), naiveDest: opts.NaiveDest}
	for _, m := range models {
		b.targets = append(b.targets, &target{model: m})
	}
	return b
}

// unit is what Init and GetDest place (Fig. 7): ME2H routes whole
// vertices (wholeVertex), MV2H base copies (i, v) with their local arc
// sets (baseCopy). x names a fragment of the target partition.
type unit interface {
	// eligible reports whether (i, v) carries computation to place.
	eligible(i int, v graph.VertexID) bool
	// keys is the size of a target's routed bitmap, key (i, v)'s slot.
	keys() int
	key(i int, v graph.VertexID) int
	// cost is (i, v)'s hypothetical contribution under t's model, on
	// its own: what placing it adds to a fragment with no copy of v. It
	// reads nothing a placement changes.
	cost(t *target, i int, v graph.VertexID) float64
	// fits probes ChAj(F^j_x ∪ (i, v)) ≤ Bj, c being cost(t, i, v).
	fits(t *target, i, x int, v graph.VertexID, c float64) bool
	apply(t *target, i, x int, v graph.VertexID)
}

// build runs the schedule ME2H and MV2H share. Every step reads and
// writes one target only, except GetDest, whose set cover picks one
// fragment for all the algorithms still pending. So the build is two
// per-target sections on the shared pool around one sequential GetDest
// sweep:
//
//   - (A) budget, Init over the BFS orders, tracker rebuild;
//   - GetDest (VAssign, lines 8-13) for every unit, in BFS order;
//   - (B) tracker rebuild, split (per algorithm), MAssign (line 19).
//
// Each target runs its steps in this order and sees only its own state
// (and the read-only base), so the result does not depend on the worker
// count. Every tracker rebuild — after Init, before (B)'s split, before
// VMergeSweep and before MAssign — is a section boundary (see
// target.boundary), where the target partition is compiled first, so
// every rebuild and vertex walk, New's index merge and the caller's
// engine.NewCluster read flat arrays; compiling keeps every adjacency
// order, so no float changes.
func (b *builder) build(u unit, split func(t *target)) (*Composite, *BuildStats, error) {
	start := time.Now()
	var bfs refine.BFS
	for i := 0; i < b.n; i++ {
		for _, v := range bfs.Order(b.base, i) {
			if u.eligible(i, v) {
				b.units = append(b.units, position{i, v})
			}
		}
	}
	pl := pool.Default()
	pl.RunChunks(len(b.targets), 1, func(lo, hi int) {
		for _, t := range b.targets[lo:hi] {
			b.initTarget(u, t)
		}
	})
	for _, p := range b.units {
		b.getDest(u, p.i, p.v)
	}
	pl.RunChunks(len(b.targets), 1, func(lo, hi int) {
		for _, t := range b.targets[lo:hi] {
			t.boundary()
			split(t)
			t.boundary()
			refine.MAssignOnly(t.tr)
		}
	})

	st := &BuildStats{}
	parts := make([]*partition.Partition, len(b.targets))
	for j, t := range b.targets {
		parts[j] = t.part
		st.Budgets = append(st.Budgets, t.budget)
		st.Assigned += t.assigned
		st.SplitEdges += t.splitEdges
		st.Merged += t.merged
	}
	for p := range b.units {
		shared := true
		for _, t := range b.targets {
			shared = shared && t.kept[p]
		}
		if shared {
			st.InitShared++
		}
	}
	st.Total = time.Since(start)
	comp, err := New(b.g, parts)
	if err != nil {
		return nil, nil, err
	}
	return comp, st, nil
}

// initTarget is section (A) for one target. Budget Bj = average ChAj
// over the INPUT partition (line 1), with 5% slack so that algorithms
// the input already balances keep their vertices in place (scattering
// them would trade locality for nothing). Init then keeps every unit in
// place that the budget allows — growing the shared core Ci.
func (b *builder) initTarget(u unit, t *target) {
	t.budget = 1.05 * costmodel.TotalComp(costmodel.Evaluate(b.base, t.model)) / float64(b.n)
	t.part = partition.NewEmpty(b.g, b.n)
	t.tr = costmodel.NewTracker(t.part, t.model)
	t.routed = make([]bool, u.keys())
	t.kept = make([]bool, len(b.units))
	for p, pos := range b.units {
		if u.fits(t, pos.i, pos.i, pos.v, u.cost(t, pos.i, pos.v)) {
			b.assign(u, t, pos.i, pos.i, pos.v)
			t.kept[p] = true
		}
	}
	t.boundary()
}

// boundary closes a section of t's build: it folds t's partition into
// compiled form and re-evaluates it from scratch in the tracker's own
// storage, clearing the drift the light per-vertex refreshes
// accumulated.
func (t *target) boundary() {
	t.part.Compile()
	t.tr.Rebuild()
}

// assign places unit (i, v) whole into fragment x of t's partition.
func (b *builder) assign(u unit, t *target, i, x int, v graph.VertexID) {
	u.apply(t, i, x, v)
	t.routed[u.key(i, v)] = true
	t.assigned++
}

// getDest implements procedure GetDest (Fig. 7): given the set Ov of
// algorithms that still need unit (src, v) placed, repeatedly pick the
// destination fragment accepted by the most remaining algorithms — a
// greedy minimum set cover that minimises v's replication across the
// composite and with it fc. NaiveDest instead lets each algorithm take
// the first fragment that fits. Each pending algorithm's unit cost is
// evaluated once, up front, as it reads nothing a placement changes.
func (b *builder) getDest(u unit, src int, v graph.VertexID) {
	ov := b.ov[:0]
	for _, t := range b.targets {
		if !t.routed[u.key(src, v)] {
			t.cost = u.cost(t, src, v)
			ov = append(ov, t)
		}
	}
	b.ov = ov
	if b.naiveDest {
		for _, t := range ov {
			for x := 0; x < b.n; x++ {
				if u.fits(t, src, x, v, t.cost) {
					b.assign(u, t, src, x, v)
					break
				}
			}
		}
		return
	}
	// The source fragment is probed first so that cover ties keep the
	// candidate where its neighbours are (locality).
	order := append(b.order[:0], src)
	for x := 0; x < b.n; x++ {
		if x != src {
			order = append(order, x)
		}
	}
	b.order = order
	for len(ov) > 0 {
		bestX, bestCover := -1, 0
		for _, x := range order {
			cover := 0
			for _, t := range ov {
				if u.fits(t, src, x, v, t.cost) {
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
			// over-budget hubs are left for EAssign. Placing for t
			// changes only t's partition, so no later t fits either.
			for _, t := range ov {
				// Keep only small units whole: a large one would
				// overload the destination (quadratic-cost algorithms
				// care), so it is left for EAssign to split.
				if t.cost > 0.25*t.budget {
					continue
				}
				b.assign(u, t, src, t.tr.ArgminComp(), v)
			}
			return
		}
		// Filter in place: each algorithm's probe reads only its own
		// partition, so placing one does not change another's answer.
		rest := ov[:0]
		for _, t := range ov {
			if u.fits(t, src, bestX, v, t.cost) {
				b.assign(u, t, src, bestX, v)
			} else {
				rest = append(rest, t)
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

func (b wholeVertex) keys() int                       { return b.g.NumVertices() }
func (b wholeVertex) key(_ int, v graph.VertexID) int { return int(v) }

func (b wholeVertex) fits(t *target, _, x int, _ graph.VertexID, c float64) bool {
	return t.tr.Comp(x)+c <= t.budget
}

// apply places v with every incident arc into fragment x of t's
// partition.
func (b wholeVertex) apply(t *target, _, x int, v graph.VertexID) {
	p := t.part
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
	// Only the subject vertex is refreshed during the bulk build;
	// neighbour contributions drift slightly and are reconciled by the
	// tracker rebuilds at the section boundaries. Exact per-arc
	// refreshes would cost O(deg·n) per assignment and dominate the
	// build (the whole point of ME2H is to be cheaper than k separate
	// refiners).
	t.tr.Refresh(v)
}

// cost is v's hypothetical contribution as a complete copy.
func (b wholeVertex) cost(t *target, _ int, v graph.VertexID) float64 {
	return t.tr.HypotheticalComp(v, b.g.InDegree(v), b.g.OutDegree(v), 0, false)
}

// arcT is one arc to place.
type arcT struct{ u, w graph.VertexID }

func compareArcs(a, c arcT) int {
	if a.u != c.u {
		return cmp.Compare(a.u, c.u)
	}
	return cmp.Compare(a.w, c.w)
}

// wholeArcs appends every incident arc of v (canonical single
// direction for undirected graphs) to arcs, in key order.
func wholeArcs(arcs []arcT, g *graph.Graph, v graph.VertexID) []arcT {
	for _, w := range g.OutNeighbors(v) {
		if g.Undirected() && v > w {
			continue
		}
		arcs = append(arcs, arcT{v, w})
	}
	for _, w := range g.InNeighbors(v) {
		if !g.Undirected() || w < v {
			arcs = append(arcs, arcT{w, v})
		}
	}
	slices.SortFunc(arcs, compareArcs)
	return arcs
}

// eAssign splits v's arcs one by one onto the cheapest fragment of t's
// partition.
func (b *builder) eAssign(t *target, v graph.VertexID, arcs []arcT) {
	for _, a := range arcs {
		t.part.AddEdge(t.tr.ArgminComp(), a.u, a.w)
		t.tr.RefreshSet([]graph.VertexID{a.u, a.w}) // does not escape
		t.splitEdges++
	}
	if len(arcs) == 0 && len(t.part.Copies(v)) == 0 {
		t.part.AddVertex(int(v)%b.n, v)
	}
}
