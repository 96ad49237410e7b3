// Package refine implements the paper's application-driven hybrid
// partitioners (Section 5): E2H extends any edge-cut partition and V2H
// any vertex-cut partition into a hybrid partition that reduces the
// parallel cost max_i CA(Fi) of a given algorithm A, guided by A's
// learned cost model (hA, gA).
//
// Both refiners run in two stages. Stage one balances computational
// cost against a budget B (the average ChA(Fi)): E2H migrates whole
// e-cut nodes (EMigrate) and then splits the remainder edge by edge
// (ESplit); V2H migrates v-cut copies onto existing copies (VMigrate)
// and merges v-cut nodes back into e-cut nodes (VMerge). Stage two
// (MAssign) redistributes communication cost by re-choosing master
// copies; it never increases the computational cost.
//
// ParE2H and ParV2H are the Section-5.3 parallelisations: candidates
// flow in round-robin batches between overloaded and underloaded
// fragments with cost probes evaluated concurrently, mutations applied
// at superstep barriers.
package refine

import (
	"context"
	"fmt"
	"sort"
	"time"

	"adp/internal/costmodel"
	"adp/internal/graph"
	"adp/internal/partition"
	"adp/internal/pool"
)

// Config tunes a refinement run.
type Config struct {
	// Phases limits how many phases run (1 = migration only,
	// 2 = +split/merge, 3 = +MAssign). 0 means all three. Used by the
	// Fig.-11 phase-decomposition ablation.
	Phases int
	// BatchSize is the parallel superstep batch size b of
	// Section 5.3. 0 means 64.
	BatchSize int
	// Parallel enables the BSP-batched schedule with concurrent cost
	// probes (ParE2H / ParV2H).
	Parallel bool
	// ArbitraryCandidates disables the BFS locality order inside
	// GetCandidates, evicting vertices in plain id order — the
	// ablation target for the coherent-sub-fragment design choice.
	ArbitraryCandidates bool
	// Pool executes the concurrent probe passes of the parallel
	// schedule. Nil means the process-wide shared pool; pool.Serial()
	// gives the deterministic single-threaded mode. Stats are
	// identical for any pool size: probes are read-only against the
	// superstep-start state and verdicts land in per-candidate slots.
	Pool *pool.Pool
}

func (c *Config) defaults() {
	if c.Phases == 0 {
		c.Phases = 3
	}
	if c.BatchSize == 0 {
		c.BatchSize = 64
	}
	if c.Pool == nil {
		c.Pool = pool.Default()
	}
}

// Stats reports what a refinement run did.
type Stats struct {
	Budget         float64
	Migrated       int // whole-vertex migrations (EMigrate / VMigrate)
	SplitEdges     int // edges moved by ESplit
	Merged         int // v-cut nodes merged by VMerge
	MastersMoved   int
	PhaseDurations [3]time.Duration
	Total          time.Duration
}

// String summarises the run on one line.
func (s *Stats) String() string {
	return fmt.Sprintf("refine{B=%.4g migrated=%d split=%d merged=%d masters=%d in %v}",
		s.Budget, s.Migrated, s.SplitEdges, s.Merged, s.MastersMoved, s.Total.Round(time.Millisecond))
}

// candidate is a migration candidate (v, Evi): a vertex of an
// overloaded fragment marked for migration with its local incident
// arcs.
type candidate struct {
	frag int
	v    graph.VertexID
}

// BFS is the locality order of GetCandidates (Fig. 3) and of the
// composite partitioners' Init (Fig. 7), on reusable scratch: every
// vertex of a fragment, breadth-first over the fragment-local
// adjacency, each tree rooted at the smallest unvisited id and
// neighbours taken in id order, so the order is deterministic. seen is
// graph-wide and cleared through the visit queue, so reuse is
// O(visited), not O(|V|). The zero value is ready to use.
type BFS struct {
	seen  []bool
	queue []graph.VertexID
	nbrs  vidSorter
}

// vidSorter sorts a vertex-id slice through a persistent
// sort.Interface value, avoiding the per-call closure and reflection
// allocations of sort.Slice.
type vidSorter struct{ s []graph.VertexID }

func (x *vidSorter) Len() int           { return len(x.s) }
func (x *vidSorter) Less(a, b int) bool { return x.s[a] < x.s[b] }
func (x *vidSorter) Swap(a, b int)      { x.s[a], x.s[b] = x.s[b], x.s[a] }

// Order returns the vertices of fragment i of p in BFS order. The visit
// queue doubles as the order: vertices are appended exactly once, in
// visit order, and the head index walks behind. The result aliases the
// scratch and is valid until the next call.
func (sc *BFS) Order(p *partition.Partition, i int) []graph.VertexID {
	f := p.Fragment(i)
	ids := f.SortedVertices()
	if len(sc.seen) < p.Graph().NumVertices() {
		sc.seen = make([]bool, p.Graph().NumVertices())
	}
	queue := sc.queue[:0]
	if cap(queue) < len(ids) {
		queue = make([]graph.VertexID, 0, len(ids))
	}
	for _, root := range ids {
		if sc.seen[root] {
			continue
		}
		sc.seen[root] = true
		queue = append(queue, root)
		for head := len(queue) - 1; head < len(queue); head++ {
			v := queue[head]
			adj := f.Adjacency(v)
			if adj == nil {
				continue
			}
			sc.nbrs.s = append(append(sc.nbrs.s[:0], adj.Out...), adj.In...)
			sort.Sort(&sc.nbrs)
			for _, w := range sc.nbrs.s {
				if !sc.seen[w] && f.Has(w) {
					sc.seen[w] = true
					queue = append(queue, w)
				}
			}
		}
	}
	for _, v := range queue {
		sc.seen[v] = false
	}
	sc.queue = queue
	return queue
}

// getCandidates implements procedure GetCandidates (Fig. 3): a BFS
// traversal over the fragment's non-dummy nodes greedily retains a
// coherent sub-fragment within budget B; everything else is returned
// as migration candidates in BFS order. With a nil bfs the traversal
// degrades to plain id order (the locality ablation).
func getCandidates(tr *costmodel.Tracker, i int, budget float64, bfs *BFS) []candidate {
	p := tr.Partition()
	var order []graph.VertexID
	if bfs != nil {
		order = bfs.Order(p, i)
	} else {
		order = p.Fragment(i).SortedVertices()
	}
	kept := 0.0
	var out []candidate
	for _, v := range order {
		st := p.Status(i, v)
		if st != partition.ECutNode && st != partition.VCutNode {
			continue // dummies carry no computation
		}
		cost := tr.Contribution(i, v)
		if kept+cost <= budget {
			kept += cost
			continue
		}
		out = append(out, candidate{frag: i, v: v})
	}
	return out
}

// refiner names what E2H (Fig. 3) and V2H (Fig. 4) each put into the
// steps they share: the probe and apply of the migrate phase, and
// phase 2 — ESplit over the migrate leftovers, or VMerge.
type refiner struct {
	probe  probeFunc
	apply  applyFunc
	phase2 func(ctx context.Context, tr *costmodel.Tracker, leftover []candidate, budget float64, stats *Stats) error
}

// run refines p in place: budget B, candidates, the migrate phase on
// the serial or the BSP schedule, phase 2 and MAssign, each phase
// timed. Cancellation is observed between candidates, supersteps and
// phases; the partial Stats and the ctx error are returned, and the
// partially refined partition remains valid.
func (r refiner) run(ctx context.Context, p *partition.Partition, m costmodel.CostModel, cfg Config) (*Stats, error) {
	cfg.defaults()
	start := time.Now()
	tr := costmodel.NewTracker(p, m)
	stats := &Stats{}
	done := func(err error) (*Stats, error) {
		stats.Total = time.Since(start)
		return stats, err
	}

	// Budget B = average computational cost (line 1).
	var total float64
	for i := 0; i < p.NumFragments(); i++ {
		total += tr.Comp(i)
	}
	budget := total / float64(p.NumFragments())
	stats.Budget = budget

	over, under := classify(tr, budget)
	var bfs *BFS
	if !cfg.ArbitraryCandidates {
		bfs = &BFS{}
	}
	var candidates []candidate
	for _, i := range over {
		candidates = append(candidates, getCandidates(tr, i, budget, bfs)...)
	}

	// Phase 1: EMigrate / VMigrate (lines 6-10).
	t0 := time.Now()
	var leftover []candidate
	var err error
	if cfg.Parallel {
		leftover, err = parallelMigrateCtx(ctx, cfg.Pool, tr, candidates, under, budget, cfg.BatchSize, r.probe, r.apply, stats, &migrateScratch{})
	} else {
		leftover, err = serialMigrate(ctx, tr, candidates, under, budget, r.probe, r.apply, stats)
	}
	stats.PhaseDurations[0] = time.Since(t0)
	if err != nil {
		return done(err)
	}

	// Phase 2: ESplit / VMerge (lines 11-14).
	if cfg.Phases >= 2 {
		t1 := time.Now()
		err = r.phase2(ctx, tr, leftover, budget, stats)
		stats.PhaseDurations[1] = time.Since(t1)
		if err != nil {
			return done(err)
		}
	}

	// Phase 3: MAssign (line 15).
	if cfg.Phases >= 3 {
		if err = ctxErr(ctx); err != nil {
			return done(err)
		}
		t2 := time.Now()
		stats.MastersMoved = mAssign(tr)
		stats.PhaseDurations[2] = time.Since(t2)
	}
	return done(nil)
}

// classify splits fragments into overloaded and underloaded sets
// against the budget.
func classify(tr *costmodel.Tracker, budget float64) (over, under []int) {
	for i := 0; i < tr.Partition().NumFragments(); i++ {
		if tr.Comp(i) > budget {
			over = append(over, i)
		} else {
			under = append(under, i)
		}
	}
	return over, under
}

// serialMigrate is the sequential migrate loop: each candidate is
// offered to the underloaded fragments in turn and applied at the first
// that accepts it. Candidates no fragment accepts are returned.
func serialMigrate(ctx context.Context, tr *costmodel.Tracker, candidates []candidate, under []int, budget float64,
	probe probeFunc, apply applyFunc, stats *Stats) ([]candidate, error) {
	var leftover []candidate
	for _, c := range candidates {
		if err := ctxErr(ctx); err != nil {
			return leftover, err
		}
		placed := false
		for _, j := range under {
			if j != c.frag && probe(tr, c, j, budget) {
				apply(tr, c, j, stats)
				placed = true
				break
			}
		}
		if !placed {
			leftover = append(leftover, c)
		}
	}
	return leftover, nil
}

// arcRemovableFrom reports whether the arc (u,w) may be dropped from
// fragment i after its subject vertex leaves: it must stay only when
// the other endpoint's copy in i is that vertex's designated e-cut
// node (which owns all its incident edges).
func arcRemovableFrom(p *partition.Partition, i int, other graph.VertexID) bool {
	return p.Status(i, other) != partition.ECutNode
}

// moveVertexArcs migrates every local incident arc of v from fragment
// i to fragment j. Arcs needed by another e-cut node of i remain
// (leaving a dummy copy of v behind, Example 9). For undirected graphs
// each symmetric pair moves atomically — the removability decision is
// made once per edge, because mutations can flip a neighbour's e-cut
// designation mid-move. Returns every vertex whose variables changed.
func moveVertexArcs(p *partition.Partition, v graph.VertexID, i, j int) []graph.VertexID {
	adj := p.Fragment(i).Adjacency(v)
	if adj == nil {
		return nil
	}
	touched := []graph.VertexID{v}
	if p.Graph().Undirected() {
		nbrs := append([]graph.VertexID(nil), adj.Out...)
		for _, w := range nbrs {
			p.AddEdge(j, v, w)
			if arcRemovableFrom(p, i, w) {
				p.RemoveEdge(i, v, w)
			}
			touched = append(touched, w)
		}
		return touched
	}
	outArcs := append([]graph.VertexID(nil), adj.Out...)
	inArcs := append([]graph.VertexID(nil), adj.In...)
	for _, w := range outArcs {
		p.AddArc(j, v, w)
		if arcRemovableFrom(p, i, w) {
			p.RemoveArc(i, v, w)
		}
		touched = append(touched, w)
	}
	for _, w := range inArcs {
		p.AddArc(j, w, v)
		if arcRemovableFrom(p, i, w) {
			p.RemoveArc(i, w, v)
		}
		touched = append(touched, w)
	}
	return touched
}

// moveECutVertex is an EMigrate operation: migrate e-cut node v with
// all its incident arcs from fragment i to fragment j and hand over
// ownership and mastership.
func moveECutVertex(p *partition.Partition, v graph.VertexID, i, j int) []graph.VertexID {
	touched := moveVertexArcs(p, v, i, j)
	if touched == nil {
		return nil
	}
	p.SetOwner(v, j)
	if p.Fragment(j).Has(v) {
		_ = p.SetMaster(v, j)
	}
	return touched
}

// moveSingleArc migrates one arc of vertex v from fragment i to
// fragment t (an ESplit step). The arc leaves i unless another e-cut
// node of i needs it. For undirected graphs the symmetric arc pair
// moves together, preserving the co-location invariant.
func moveSingleArc(p *partition.Partition, i, t int, u, w graph.VertexID, subject graph.VertexID) []graph.VertexID {
	other := u
	if other == subject {
		other = w
	}
	if p.Graph().Undirected() {
		p.AddEdge(t, u, w)
		if arcRemovableFrom(p, i, other) {
			p.RemoveEdge(i, u, w)
		}
	} else {
		p.AddArc(t, u, w)
		if arcRemovableFrom(p, i, other) {
			p.RemoveArc(i, u, w)
		}
	}
	return []graph.VertexID{u, w}
}
