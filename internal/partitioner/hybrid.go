package partitioner

import (
	"adp/internal/graph"
	"adp/internal/partition"
)

// GingerConfig tunes the Ginger hybrid baseline.
type GingerConfig struct {
	DegreeThreshold int // vertices with in-degree above this are split, default 2·avg
}

// GingerHybrid implements the Ginger partitioner of PowerLyra [16]:
// a Fennel-style placement decides a home fragment per vertex; a
// low-degree vertex keeps all its in-edges at its home (locality),
// while a high-degree vertex's in-edges are scattered to the source's
// home fragment (splitting the hub, vertex-cut style). The result is
// a hybrid partition with fe = 1.
func GingerHybrid(g *graph.Graph, n int, cfg GingerConfig) (*partition.Partition, error) {
	if cfg.DegreeThreshold == 0 {
		cfg.DegreeThreshold = int(2*g.AvgDegree()) + 1
	}
	// Reuse the Fennel placement as the "home" assignment.
	base, err := FennelEdgeCut(g, n, FennelConfig{})
	if err != nil {
		return nil, err
	}
	home := make([]int, g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		home[v] = base.Owner(graph.VertexID(v))
	}
	return splitHubs(g, n, home, func(v graph.VertexID) bool { return g.InDegree(v) > cfg.DegreeThreshold }), nil
}

// splitHubs builds the hybrid partition both baselines end in: an edge
// is co-located with its target at the target's home unless the target
// is a hub, whose in-edges are scattered to their sources' homes; every
// vertex is owned at home, where an isolated one gets its only copy.
func splitHubs(g *graph.Graph, n int, home []int, isHub func(graph.VertexID) bool) *partition.Partition {
	b := partition.NewBuilder(g, n)
	g.Edges(func(s, d graph.VertexID) bool {
		if g.Undirected() && s > d {
			return true
		}
		if isHub(d) {
			b.AddEdge(home[s], s, d)
		} else {
			b.AddEdge(home[d], s, d)
		}
		return true
	})
	p := b.Build(func(v graph.VertexID) int { return home[v] })
	for v, i := range home {
		p.SetOwner(graph.VertexID(v), i)
	}
	return p
}

// TopoXConfig tunes the TopoX hybrid baseline.
type TopoXConfig struct {
	DegreeThreshold int // split threshold for hubs, default 4·avg
}

// topoXSuperNodeSize caps how many vertices TopoX merges into one
// super node.
const topoXSuperNodeSize = 4

// TopoXHybrid implements the topology-refactorisation idea of TopoX
// [35]: neighbouring low-degree vertices are merged into super nodes
// so that they are never split, super nodes are placed round-robin by
// accumulated load, and high-degree vertices are split across
// fragments like Ginger.
func TopoXHybrid(g *graph.Graph, n int, cfg TopoXConfig) (*partition.Partition, error) {
	if cfg.DegreeThreshold == 0 {
		cfg.DegreeThreshold = int(4*g.AvgDegree()) + 1
	}
	nv := g.NumVertices()
	isHub := func(v graph.VertexID) bool {
		return g.InDegree(v)+g.OutDegree(v) > cfg.DegreeThreshold
	}
	// Greedy super-node construction: walk vertices in id order; an
	// unmerged low-degree vertex starts a super node and absorbs
	// unmerged low-degree neighbours up to the size cap.
	super := make([]int, nv)
	for v := range super {
		super[v] = -1
	}
	numSuper := 0
	for v := 0; v < nv; v++ {
		if super[v] >= 0 || isHub(graph.VertexID(v)) {
			continue
		}
		id := numSuper
		numSuper++
		super[v] = id
		size := 1
		absorb := func(w graph.VertexID) {
			if size < topoXSuperNodeSize && super[w] < 0 && !isHub(w) {
				super[w] = id
				size++
			}
		}
		for _, w := range g.OutNeighbors(graph.VertexID(v)) {
			absorb(w)
		}
		for _, w := range g.InNeighbors(graph.VertexID(v)) {
			absorb(w)
		}
	}
	// Hubs get singleton super ids too, so every vertex has a home.
	for v := 0; v < nv; v++ {
		if super[v] < 0 {
			super[v] = numSuper
			numSuper++
		}
	}
	// Place super nodes: least-loaded fragment by accumulated degree.
	superLoad := make([]int, numSuper)
	for v := 0; v < nv; v++ {
		superLoad[super[v]] += g.InDegree(graph.VertexID(v)) + g.OutDegree(graph.VertexID(v))
	}
	fragLoad := make([]int, n)
	superHome := make([]int, numSuper)
	for s := 0; s < numSuper; s++ {
		best := 0
		for i := 1; i < n; i++ {
			if fragLoad[i] < fragLoad[best] {
				best = i
			}
		}
		superHome[s] = best
		fragLoad[best] += superLoad[s]
	}
	home := make([]int, nv)
	for v := 0; v < nv; v++ {
		home[v] = superHome[super[v]]
	}
	return splitHubs(g, n, home, isHub), nil
}
