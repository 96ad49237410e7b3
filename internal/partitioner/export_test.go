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
