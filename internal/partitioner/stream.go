package partitioner

import (
	"fmt"
	"math"

	"adp/internal/graph"
	"adp/internal/partition"
)

// FennelStream is the one-pass Fennel heuristic decoupled from a
// finished graph: it implements graph.VertexConsumer, so it can run
// *during* ingestion (graph.BuildStreaming hands it each forward star
// the moment it is final, while the in-adjacency still builds).
//
// It reproduces FennelEdgeCut bit for bit. The batch version scores
// fragment i by the count of already-assigned neighbours on either
// edge direction; with vertices streamed in id order, "assigned" means
// id < v, so the count splits into (a) out-neighbours w < v, looked up
// directly, and (b) in-neighbours w < v — exactly the vertices that
// pushed their fragment to v when they were assigned (each w pushes to
// every out-neighbour x > w). No in-adjacency is ever consulted, which
// is what lets the partitioner overlap its construction.
type FennelStream struct {
	n   int
	cfg FennelConfig

	alpha    float64
	capLimit int

	assign     []int
	sizes      []int
	neighborIn []int
	// pushed[x] holds the fragments of x's already-assigned
	// in-neighbours; drained and released at x's own turn.
	pushed [][]int32
}

// NewFennelStream returns a streaming Fennel partitioner over n
// fragments. Feed it to graph.BuildStreaming (it is a VertexConsumer),
// then call Partition.
func NewFennelStream(n int, cfg FennelConfig) *FennelStream {
	cfg.defaults()
	return &FennelStream{n: n, cfg: cfg}
}

// Begin sizes the internal state once the stream's vertex and arc
// counts are known (alpha depends on |E| and |V|, the capacity cap on
// |V|).
func (s *FennelStream) Begin(nv int, m int64) {
	s.alpha = float64(m) * math.Pow(float64(s.n), s.cfg.Gamma-1) / math.Pow(float64(nv), s.cfg.Gamma)
	s.capLimit = int(s.cfg.Slack*float64(nv)/float64(s.n)) + 1
	s.assign = make([]int, nv)
	for i := range s.assign {
		s.assign[i] = -1
	}
	s.sizes = make([]int, s.n)
	s.neighborIn = make([]int, s.n)
	s.pushed = make([][]int32, nv)
}

// Vertex places v. out must be v's final forward star (sorted, deduped,
// loop-free) and calls must arrive in ascending id order — the
// contract BuildStreaming provides.
func (s *FennelStream) Vertex(v graph.VertexID, out []graph.VertexID) {
	for i := range s.neighborIn {
		s.neighborIn[i] = 0
	}
	for _, w := range out {
		if w < v {
			s.neighborIn[s.assign[w]]++
		}
	}
	for _, b := range s.pushed[v] {
		s.neighborIn[b]++
	}
	s.pushed[v] = nil
	best, bestScore := -1, math.Inf(-1)
	for i := 0; i < s.n; i++ {
		if s.sizes[i] >= s.capLimit {
			continue
		}
		score := float64(s.neighborIn[i]) - s.alpha*s.cfg.Gamma*math.Pow(float64(s.sizes[i]), s.cfg.Gamma-1)
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	if best < 0 { // every fragment at capacity: put in the smallest
		for i := 0; i < s.n; i++ {
			if best < 0 || s.sizes[i] < s.sizes[best] {
				best = i
			}
		}
	}
	s.assign[int(v)] = best
	s.sizes[best]++
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

// FennelStreamEdgeCut runs the streaming Fennel over an already-built
// graph — the bitwise-equality bridge between FennelEdgeCut and the
// ingest-time streaming path, pinned by the determinism tests.
func FennelStreamEdgeCut(g *graph.Graph, n int, cfg FennelConfig) (*partition.Partition, error) {
	st := NewFennelStream(n, cfg)
	st.Begin(g.NumVertices(), g.NumEdges())
	for v := 0; v < g.NumVertices(); v++ {
		st.Vertex(graph.VertexID(v), g.OutNeighbors(graph.VertexID(v)))
	}
	return st.Partition(g)
}
