package partition

import (
	"fmt"
	"slices"

	"adp/internal/graph"
	"adp/internal/pool"
)

// sourceBlock is how many consecutive sources FromVertexAssignment
// counts and fills as one task.
const sourceBlock = 4096

// FromVertexAssignment builds the edge-cut partition induced by a
// vertex→fragment assignment: fragment a(v) receives every arc
// incident to v, so every vertex is e-cut at its owner and cut arcs
// are replicated at both endpoint fragments (the classic edge-cut
// layout of Fig. 1(b), with dummy copies at the far ends of cut arcs).
func FromVertexAssignment(g *graph.Graph, assign []int, n int) (*Partition, error) {
	if len(assign) != g.NumVertices() {
		return nil, fmt.Errorf("partition: assignment covers %d of %d vertices", len(assign), g.NumVertices())
	}
	// Masters and compute owners are the owner fragment, which holds
	// every arc incident to v: known up front, so the keys go straight
	// into the lists, past AddArc's first-touch bookkeeping.
	b := NewBuilder(g, n)
	for v, i := range assign {
		if i < 0 || i >= n {
			return nil, fmt.Errorf("partition: vertex %d assigned to fragment %d of %d", v, i, n)
		}
		if g.OutDegree(graph.VertexID(v))+g.InDegree(graph.VertexID(v)) > 0 {
			b.master[v] = int32(i)
		}
	}
	// Count, then fill, per block of sourceBlock sources on
	// pool.Default(): block k's arcs go to offs[k*n+i] onward in fragment
	// i's list, after every earlier block's, so each list is allocated
	// once at its exact length and comes out in g.Edges order.
	blocks := (len(assign) + sourceBlock - 1) / sourceBlock
	offs := make([]int, blocks*n)
	pass := func(k int, fill bool) {
		at := offs[k*n : (k+1)*n]
		for v := k * sourceBlock; v < min((k+1)*sourceBlock, len(assign)); v++ {
			i := assign[v]
			for _, d := range g.OutNeighbors(graph.VertexID(v)) {
				key, j := arcKey(graph.VertexID(v), d), assign[d]
				if fill {
					b.keys[i][at[i]] = key
				}
				at[i]++
				if j != i {
					if fill {
						b.keys[j][at[j]] = key
					}
					at[j]++
				}
			}
		}
	}
	pool.Default().Run(blocks, func(k int) { pass(k, false) })
	for i := 0; i < n; i++ {
		total := 0
		for k := 0; k < blocks; k++ {
			offs[k*n+i], total = total, total+offs[k*n+i]
		}
		b.keys[i] = make([]uint64, total)
	}
	pool.Default().Run(blocks, func(k int) { pass(k, true) })
	p := b.Build(func(v graph.VertexID) int { return assign[v] }) // isolated vertices: at their owner too
	for v, i := range assign {
		p.owner[v] = int32(i)
	}
	return p, nil
}

// EdgeAssigner maps an edge to its owning fragment. For undirected
// graphs it is consulted once per undirected edge (src < dst) and the
// symmetric arc pair is co-located.
type EdgeAssigner func(src, dst graph.VertexID) int

// FromEdgeAssignment builds the vertex-cut partition induced by an
// edge→fragment assignment: each edge lives in exactly one fragment
// (fe = 1) and vertices are replicated wherever their edges land.
func FromEdgeAssignment(g *graph.Graph, assign EdgeAssigner, n int) (*Partition, error) {
	b := NewBuilder(g, n)
	var err error
	g.Edges(func(s, d graph.VertexID) bool {
		if g.Undirected() && s > d {
			return true
		}
		i := assign(s, d)
		if i < 0 || i >= n {
			err = fmt.Errorf("partition: edge (%d,%d) assigned to fragment %d of %d", s, d, i, n)
			return false
		}
		b.AddEdge(i, s, d)
		return true
	})
	if err != nil {
		return nil, err
	}
	return b.Build(func(v graph.VertexID) int { return int(v) % n }), nil
}

// Clone returns a compiled deep copy of the partition sharing only the
// immutable graph: every fragment is copied out whole into an overlay
// over an empty base, whatever form the original is in, and then
// compiled from scratch, so the copy's bases are its own. Refiners
// mutate partitions in place; benchmarks clone the baseline first and
// refine the same compiled form the constructors emit, and the
// copy-on-write tests use Clone as the oracle that shares nothing.
func (p *Partition) Clone() *Partition { return p.copyOut().Compile() }

// copyOut is Clone before the compile: every fragment an overlay over
// an empty base.
func (p *Partition) copyOut() *Partition {
	q := &Partition{
		g:      p.g,
		frags:  make([]*Fragment, len(p.frags)),
		copies: make([][]int32, len(p.copies)),
		master: slices.Clone(p.master),
		owner:  slices.Clone(p.owner),
		weight: slices.Clone(p.weight),
	}
	for v, cs := range p.copies {
		q.copies[v] = append([]int32(nil), cs...)
	}
	for i, f := range p.frags {
		q.frags[i] = freezeFragment(i, noBase)
		ov := q.overlayOf(i)
		ov.nVerts, ov.nArcs, ov.edits = f.NumVertices(), f.NumArcs(), f.NumArcs()
		f.Vertices(func(v graph.VertexID, adj *Adj) {
			ov.put(v, &Adj{Out: slices.Clone(adj.Out), In: slices.Clone(adj.In)})
		})
	}
	return q
}

// Validate checks the HP(n) invariants of Section 2:
//   - every fragment arc exists in G and endpoint adjacency is
//     consistent with the arc set;
//   - every arc of G is stored by at least one fragment;
//   - every vertex of G has at least one copy;
//   - the copies index is sorted, duplicate-free, in fragment range,
//     and agrees with fragment contents in both directions (which
//     makes border status ⇔ replication ≥ 2 by construction);
//   - the master of every vertex is an in-range fragment holding a
//     real copy, and a single-copy (non-border) vertex is mastered at
//     that sole copy;
//   - the owner hint, when set, is an in-range fragment;
//   - for undirected graphs, symmetric arc pairs are co-located.
//
// Note the paper's Eq. 5 master assignment legitimately selects dummy
// copies (masters coordinate synchronisation, they do not compute), so
// the checker does not forbid dummy masters — empirically most border
// masters of refined edge-cut partitions are dummies.
//
// The engine's recovery tests run Validate after checkpoint rollback
// and after refinement, so recovery bugs surface as invariant
// violations instead of silent cost skew.
func (p *Partition) Validate() error {
	covered := make(map[uint64]bool, p.g.NumEdges())
	for i, f := range p.frags {
		var localArcs int
		var verr error
		f.Vertices(func(v graph.VertexID, adj *Adj) {
			if verr != nil {
				return
			}
			for _, w := range adj.Out {
				if !p.g.HasEdge(v, w) {
					verr = fmt.Errorf("partition: fragment %d stores arc (%d,%d) not in G", i, v, w)
					return
				}
				if !f.HasArc(v, w) {
					verr = fmt.Errorf("partition: fragment %d adjacency/arc-set mismatch at (%d,%d)", i, v, w)
					return
				}
				covered[arcKey(v, w)] = true
				localArcs++
				if p.g.Undirected() && !f.HasArc(w, v) {
					verr = fmt.Errorf("partition: fragment %d splits undirected edge {%d,%d}", i, v, w)
					return
				}
			}
			for _, w := range adj.In {
				if !f.HasArc(w, v) {
					verr = fmt.Errorf("partition: fragment %d in-adjacency lists absent arc (%d,%d)", i, w, v)
					return
				}
			}
			if !slices.Contains(p.copies[v], int32(i)) {
				verr = fmt.Errorf("partition: copies index misses vertex %d in fragment %d", v, i)
			}
		})
		if verr != nil {
			return verr
		}
		if localArcs != f.NumArcs() {
			return fmt.Errorf("partition: fragment %d arc count mismatch: adjacency %d, set %d", i, localArcs, f.NumArcs())
		}
	}
	var missing int64
	p.g.Edges(func(s, d graph.VertexID) bool {
		if !covered[arcKey(s, d)] {
			missing++
		}
		return true
	})
	if missing > 0 {
		return fmt.Errorf("partition: %d arcs of G not stored by any fragment", missing)
	}
	for v := 0; v < p.g.NumVertices(); v++ {
		vid := graph.VertexID(v)
		cs := p.copies[v]
		if len(cs) == 0 {
			return fmt.Errorf("partition: vertex %d has no copy", v)
		}
		for k, c := range cs {
			if c < 0 || int(c) >= len(p.frags) {
				return fmt.Errorf("partition: copies index of vertex %d names fragment %d of %d", v, c, len(p.frags))
			}
			if k > 0 && cs[k-1] >= c {
				return fmt.Errorf("partition: copies index of vertex %d not sorted/unique: %v", v, cs)
			}
			if !p.frags[c].Has(vid) {
				return fmt.Errorf("partition: copies index lists fragment %d for vertex %d but the fragment has no copy", c, v)
			}
		}
		if p.IsBorder(vid) != (p.Replication(vid) >= 1) {
			return fmt.Errorf("partition: vertex %d border/replication mismatch: %d copies, r=%d", v, len(cs), p.Replication(vid))
		}
		m := p.master[v]
		if m < 0 || int(m) >= len(p.frags) || !p.frags[m].Has(vid) {
			return fmt.Errorf("partition: master of %d is fragment %d which holds no copy", v, m)
		}
		if len(cs) == 1 && m != cs[0] {
			return fmt.Errorf("partition: non-border vertex %d mastered at %d, sole copy at %d", v, m, cs[0])
		}
		if o := p.owner[v]; o < -1 || int(o) >= len(p.frags) {
			return fmt.Errorf("partition: owner of %d is fragment %d of %d", v, o, len(p.frags))
		}
	}
	return nil
}
