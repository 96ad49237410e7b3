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
	// SectionDurations splits Total: the decision sweep (budgets, Init
	// and GetDest on the ledgers), the target build (each partition
	// emitted by a partition.Builder) and section B (split, VMerge,
	// MAssign).
	SectionDurations [3]time.Duration
	Total            time.Duration
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
			if t.at[v] < 0 {
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
	// During the decision sweep, tr probes the model over the all-absent
	// partition the target starts as (HypotheticalComp reads nothing of
	// it but vertex weights, which a built partition leaves at 1), led
	// stands in for the tracker's state and pb collects the arcs in
	// placement order. From the target build on, part is the partition
	// and tr its tracker.
	tr   *costmodel.Tracker
	led  ledger
	pb   *partition.Builder
	part *partition.Partition
	// at[unit.key(i, v)] is the fragment (i, v) was placed in whole, -1
	// while it is not.
	at []int32
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
	g    *graph.Graph
	base *partition.Partition
	n    int
	// empty is the all-absent partition every decision tracker probes
	// over.
	empty   *partition.Partition
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
	// keys is the size of a target's at array, key (i, v)'s slot.
	keys() int
	key(i int, v graph.VertexID) int
	// cost is (i, v)'s hypothetical contribution under t's model, on
	// its own: what placing it adds to a fragment with no copy of v. It
	// reads nothing a placement changes.
	cost(t *target, i int, v graph.VertexID) float64
	// fits probes ChAj(F^j_x ∪ (i, v)) ≤ Bj, c being cost(t, i, v).
	fits(t *target, i, x int, v graph.VertexID, c float64) bool
	// place adds the arcs of (i, v) that fragment x of t does not hold
	// yet, or an edge-less copy of v.
	place(t *target, i, x int, v graph.VertexID)
	// owner is v's owner in t's partition (-1 when unset).
	owner(t *target, v graph.VertexID) int
	// settle gives the built partition the owners and masters the
	// placements fixed.
	settle(t *target)
}

// build runs the schedule ME2H and MV2H share in three sections:
//
//   - decision: per target on the shared pool, the budget and Init over
//     the BFS orders; then GetDest (VAssign, lines 8-13) for every unit
//     in BFS order, the one sequential sweep, as its set cover picks one
//     fragment for all the algorithms still pending;
//   - target build: per target, its partition emitted in one go;
//   - (B): per target, split (per algorithm) and MAssign (line 19).
//
// Init and GetDest decide on each target's ledger, which replays float
// for float the Comp(x) sequence a tracker over the growing partition
// would show, and only record the arcs; the build emits each partition
// from those records, compiled, in the order a per-arc build would have
// inserted them, so every adjacency order and every float downstream is
// that build's. Each target sees only its own state (and the read-only
// base), so the result does not depend on the worker count. Every
// tracker rebuild in (B) is a section boundary (see target.boundary),
// where the partition is compiled first, so New's index merge and the
// caller's engine.NewCluster read flat arrays.
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
	b.empty = partition.NewBuilder(b.g, b.n).Build(nil)
	pl := pool.Default()
	pl.RunChunks(len(b.targets), 1, func(lo, hi int) {
		for _, t := range b.targets[lo:hi] {
			b.initTarget(u, t)
		}
	})
	for _, p := range b.units {
		b.getDest(u, p.i, p.v)
	}
	st := &BuildStats{}
	st.SectionDurations[0] = time.Since(start)
	t1 := time.Now()
	pl.RunChunks(len(b.targets), 1, func(lo, hi int) {
		for _, t := range b.targets[lo:hi] {
			t.part = t.pb.Build(nil)
			u.settle(t)
			t.pb, t.led = nil, ledger{}
			t.tr = costmodel.NewTracker(t.part, t.model)
		}
	})
	st.SectionDurations[1] = time.Since(t1)
	t2 := time.Now()
	pl.RunChunks(len(b.targets), 1, func(lo, hi int) {
		for _, t := range b.targets[lo:hi] {
			split(t)
			t.boundary()
			refine.MAssignOnly(t.tr)
		}
	})
	st.SectionDurations[2] = time.Since(t2)

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

// initTarget is the decision section for one target. Budget Bj =
// average ChAj over the INPUT partition (line 1), with 5% slack so that
// algorithms the input already balances keep their vertices in place
// (scattering them would trade locality for nothing). Init then keeps
// every unit in place that the budget allows — growing the shared core
// Ci — and closes with the ledger re-seeded the way a tracker rebuild
// would re-evaluate the partition Init left.
func (b *builder) initTarget(u unit, t *target) {
	t.budget = 1.05 * costmodel.TotalComp(costmodel.Evaluate(b.base, t.model)) / float64(b.n)
	t.tr = costmodel.NewTracker(b.empty, t.model)
	t.led = newLedger(b.g.NumVertices(), b.n)
	t.pb = partition.NewBuilder(b.g, b.n)
	t.at = make([]int32, u.keys())
	for k := range t.at {
		t.at[k] = -1
	}
	t.kept = make([]bool, len(b.units))
	for p, pos := range b.units {
		if u.fits(t, pos.i, pos.i, pos.v, u.cost(t, pos.i, pos.v)) {
			b.assign(u, t, pos.i, pos.i, pos.v)
			t.kept[p] = true
		}
	}
	t.led.forget()
	for v := range b.g.NumVertices() {
		vid := graph.VertexID(v)
		t.led.refresh(t.tr, b.g, vid, u.owner(t, vid))
	}
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
// Only v is refreshed, as a tracker over a per-arc build would be:
// neighbour contributions drift slightly until Init's re-seed or (B)'s
// tracker. Exact per-arc refreshes would cost O(deg·n) per assignment
// and dominate the build (the whole point of ME2H is to be cheaper than
// k separate refiners).
func (b *builder) assign(u unit, t *target, i, x int, v graph.VertexID) {
	u.place(t, i, x, v)
	t.at[u.key(i, v)] = int32(x)
	t.led.refresh(t.tr, b.g, v, u.owner(t, v))
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
		if t.at[u.key(src, v)] < 0 {
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
				b.assign(u, t, src, t.led.argmin(), v)
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
	return t.led.comp[x]+c <= t.budget
}

// place adds v with every incident arc to fragment x of t's partition.
// An arc is already there exactly when its other endpoint was placed in
// x, or it is a self-loop the out-arcs brought.
func (b wholeVertex) place(t *target, _, x int, v graph.VertexID) {
	for _, w := range b.g.OutNeighbors(v) {
		if int(t.at[w]) != x {
			t.addArc(x, v, w)
		}
	}
	for _, w := range b.g.InNeighbors(v) {
		if w != v && int(t.at[w]) != x {
			t.addArc(x, w, v)
		}
	}
	if b.g.OutDegree(v) == 0 && b.g.InDegree(v) == 0 {
		t.addVertex(x, v)
	}
}

// owner is the fragment v was placed in: placing a vertex makes it
// v's owner and master.
func (b wholeVertex) owner(t *target, v graph.VertexID) int { return int(t.at[v]) }

func (b wholeVertex) settle(t *target) {
	for v, x := range t.at {
		if x >= 0 {
			t.part.SetOwner(graph.VertexID(v), int(x))
			_ = t.part.SetMaster(graph.VertexID(v), int(x))
		}
	}
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
