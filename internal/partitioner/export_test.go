package partitioner

import (
	"adp/internal/graph"
	"adp/internal/partition"
)

// FennelStreamEdgeCut runs the streaming Fennel over an already-built
// graph — the bridge the tests hold FennelStream to FennelEdgeCut by.
func FennelStreamEdgeCut(g *graph.Graph, n int, cfg FennelConfig) (*partition.Partition, error) {
	st := NewFennelStream(n, cfg)
	st.Begin(g.NumVertices(), g.NumEdges())
	for v := 0; v < g.NumVertices(); v++ {
		st.Vertex(graph.VertexID(v), g.OutNeighbors(graph.VertexID(v)))
	}
	return st.Partition(g)
}

// isEdgeCut reports whether every vertex with a copy is e-cut: the
// edge-cut special case, from the partition's public accessors.
func isEdgeCut(p *partition.Partition) bool {
	for v := 0; v < p.Graph().NumVertices(); v++ {
		if len(p.Copies(graph.VertexID(v))) > 0 && p.CompleteFragment(graph.VertexID(v)) < 0 {
			return false
		}
	}
	return true
}

// isVertexCut reports whether the fragments' arc sets are pairwise
// disjoint: the vertex-cut special case.
func isVertexCut(p *partition.Partition) bool {
	return int64(p.StorageArcs()) == p.Graph().NumEdges()
}

// maxDegreeVertex returns the vertex of largest total degree, ties
// toward the smaller id.
func maxDegreeVertex(g *graph.Graph) graph.VertexID {
	best := graph.VertexID(0)
	for v := graph.VertexID(1); int(v) < g.NumVertices(); v++ {
		if g.Degree(v) > g.Degree(best) {
			best = v
		}
	}
	return best
}
