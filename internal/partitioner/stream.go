package partitioner

import (
	"fmt"

	"adp/internal/graph"
	"adp/internal/partition"
)

// FennelStream is the one-pass Fennel heuristic decoupled from a
// finished graph: it implements graph.VertexConsumer, so it can run
// *during* ingestion (graph.BuildStreaming hands it each forward star
// the moment it is final, while the in-adjacency still builds).
//
// It hands the objective FennelEdgeCut uses the same neighbour counts,
// so both place every vertex alike. The batch version counts
// already-assigned neighbours on either edge direction; with vertices
// streamed in id order, "assigned" means id < v, so the count splits
// into (a) out-neighbours w < v, looked up directly, and (b)
// in-neighbours w < v — exactly the vertices that pushed their fragment
// to v when they were assigned (each w pushes to every out-neighbour
// x > w). No in-adjacency is ever consulted, which is what lets the
// partitioner overlap its construction.
type FennelStream struct {
	n   int
	cfg FennelConfig

	obj    fennel
	assign []int
	// pushed[x] holds the fragments of x's already-assigned
	// in-neighbours; drained and released at x's own turn.
	pushed [][]int32
}

// NewFennelStream returns a streaming Fennel partitioner over n
// fragments. Feed it to graph.BuildStreaming (it is a VertexConsumer),
// then call Partition.
func NewFennelStream(n int, cfg FennelConfig) *FennelStream {
	return &FennelStream{n: n, cfg: cfg}
}

// Begin sizes the internal state once the stream's vertex and arc
// counts are known (alpha depends on |E| and |V|, the capacity cap on
// |V|).
func (s *FennelStream) Begin(nv int, m int64) {
	s.obj = newFennel(s.n, nv, m, s.cfg)
	s.assign = make([]int, nv)
	for i := range s.assign {
		s.assign[i] = -1
	}
	s.pushed = make([][]int32, nv)
}

// Vertex places v. out must be v's final forward star (sorted, deduped,
// loop-free) and calls must arrive in ascending id order — the
// contract BuildStreaming provides.
func (s *FennelStream) Vertex(v graph.VertexID, out []graph.VertexID) {
	for _, w := range out {
		if w < v {
			s.obj.neighborIn[s.assign[w]]++
		}
	}
	for _, b := range s.pushed[v] {
		s.obj.neighborIn[b]++
	}
	s.pushed[v] = nil
	best := s.obj.place()
	s.assign[int(v)] = best
	for _, w := range out {
		if w > v {
			s.pushed[w] = append(s.pushed[w], int32(best))
		}
	}
}

// Assignment exposes the raw vertex→fragment assignment (valid after
// the stream completes).
func (s *FennelStream) Assignment() []int { return s.assign }

// Partition materialises the edge-cut partition over the finished
// graph.
func (s *FennelStream) Partition(g *graph.Graph) (*partition.Partition, error) {
	if s.assign == nil {
		return nil, fmt.Errorf("partitioner: FennelStream never streamed (Begin not called)")
	}
	return partition.FromVertexAssignment(g, s.assign, s.n)
}
