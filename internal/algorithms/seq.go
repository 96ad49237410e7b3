// Package algorithms implements the paper's five evaluation algorithms
// — CN (common neighbours), TC (triangle counting), WCC (weakly
// connected components), PR (PageRank) and SSSP (single-source
// shortest path) — in two forms: partition-transparent BSP programs
// that run over any hybrid partition through the engine (the [20,21]
// algorithms of Section 7), and single-machine sequential references
// that serve as correctness oracles and as the "no partitioning"
// comparator of the Exp-6 remark.
package algorithms

import (
	"container/heap"

	"adp/internal/graph"
)

// EdgeWeight is the deterministic pseudo-weight shared by the
// sequential and distributed SSSP implementations.
func EdgeWeight(u, v graph.VertexID) float64 {
	return 1 + float64((uint64(u)*31+uint64(v)*17)%9)
}

// pairHash combines a CN triple (u1, u2, w) into an order-independent
// checksum contribution, so distributed and sequential enumeration
// orders agree.
func pairHash(u1, u2, w graph.VertexID) uint64 {
	return pairMix(uint64(u1)*hashU1 ^ uint64(u2)*hashU2 ^ uint64(w)*hashW)
}

// pairHash's per-operand factors.
const (
	hashU1 = 0x9e3779b97f4a7c15
	hashU2 = 0xc2b2ae3d27d4eb4f
	hashW  = 0x165667b19e3779f9
)

// pairMix finalises pairHash's combined factors.
func pairMix(x uint64) uint64 {
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	return x
}

// CNResult summarises a common-neighbour run: the number of
// (u1, u2, w) triples with u1 < u2 both pointing at w (w's in-degree
// within the θ filter), plus an order-independent checksum over the
// triples so two runs can be compared exactly.
type CNResult struct {
	Triples  int64
	Checksum uint64
}

// CNSeq enumerates common-neighbour triples sequentially. Vertices
// with in-degree above theta are skipped (theta ≤ 0 disables the
// filter), mirroring the paper's memory-bounding practice on Twitter.
func CNSeq(g *graph.Graph, theta int) CNResult {
	var res CNResult
	for w := 0; w < g.NumVertices(); w++ {
		in := g.InNeighbors(graph.VertexID(w))
		if theta > 0 && len(in) > theta {
			continue
		}
		for i := 0; i < len(in); i++ {
			for j := i + 1; j < len(in); j++ {
				u1, u2 := in[i], in[j]
				if u1 > u2 {
					u1, u2 = u2, u1
				}
				res.Triples++
				res.Checksum += pairHash(u1, u2, graph.VertexID(w))
			}
		}
	}
	return res
}

// TCLess is the degree ordering TC processes edges in ("we only check
// the neighbors of v with smaller degrees", Example 6): a ≺ b when
// a's degree is smaller, ties toward the smaller id. Triangle
// {x ≺ y ≺ z} is counted exactly once, at the edge (x,y).
func TCLess(g *graph.Graph, a, b graph.VertexID) bool {
	da, db := g.Degree(a), g.Degree(b)
	if da != db {
		return da < db
	}
	return a < b
}

// TCSeq counts the triangles of an undirected graph with
// degree-ordered neighbour intersection.
func TCSeq(g *graph.Graph) int64 {
	var count int64
	for a := 0; a < g.NumVertices(); a++ {
		va := graph.VertexID(a)
		na := g.OutNeighbors(va) // sorted by CSR construction
		for _, b := range na {
			if !TCLess(g, va, b) {
				continue
			}
			nb := g.OutNeighbors(b)
			count += intersectOrdered(g, na, nb, b)
		}
	}
	return count
}

// intersectOrdered counts common elements c of two id-sorted lists
// with floor ≺ c in the TC degree order.
func intersectOrdered(g *graph.Graph, a, b []graph.VertexID, floor graph.VertexID) int64 {
	var n int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			if TCLess(g, floor, a[i]) {
				n++
			}
			i++
			j++
		}
	}
	return n
}

// intersectSorted counts the common elements of two id-sorted lists.
func intersectSorted(a, b []graph.VertexID) int64 {
	var n int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// WCCSeq returns per-vertex component labels (smallest member id) and
// the component count.
func WCCSeq(g *graph.Graph) ([]graph.VertexID, int) {
	labels, count := graph.ConnectedComponents(g)
	// Canonicalise to smallest member id (ConnectedComponents already
	// labels by BFS root which is the smallest unvisited id, hence
	// already canonical).
	return labels, count
}

// PRSeq runs iterations of PageRank with the given damping factor and
// returns the rank vector. Dangling mass is redistributed uniformly.
func PRSeq(g *graph.Graph, iterations int, damping float64) []float64 {
	n := g.NumVertices()
	if n == 0 {
		return nil
	}
	rank := make([]float64, n)
	next := make([]float64, n)
	for v := range rank {
		rank[v] = 1 / float64(n)
	}
	for it := 0; it < iterations; it++ {
		var dangling float64
		for v := range next {
			next[v] = 0
		}
		for v := 0; v < n; v++ {
			d := g.OutDegree(graph.VertexID(v))
			if d == 0 {
				dangling += rank[v]
				continue
			}
			share := rank[v] / float64(d)
			for _, w := range g.OutNeighbors(graph.VertexID(v)) {
				next[w] += share
			}
		}
		base := (1-damping)/float64(n) + damping*dangling/float64(n)
		for v := range next {
			next[v] = base + damping*next[v]
		}
		rank, next = next, rank
	}
	return rank
}

// SSSPSeq runs Dijkstra from source over out-edges with EdgeWeight and
// returns the distance vector (+Inf for unreachable vertices encoded
// as math.MaxFloat64).
func SSSPSeq(g *graph.Graph, source graph.VertexID) []float64 {
	const inf = 1e300
	dist := make([]float64, g.NumVertices())
	for i := range dist {
		dist[i] = inf
	}
	if int(source) >= g.NumVertices() {
		return dist
	}
	dist[source] = 0
	pq := &distHeap{{source, 0}}
	for pq.Len() > 0 {
		top := heap.Pop(pq).(distEntry)
		if top.d > dist[top.v] {
			continue
		}
		for _, w := range g.OutNeighbors(top.v) {
			nd := top.d + EdgeWeight(top.v, w)
			if nd < dist[w] {
				dist[w] = nd
				heap.Push(pq, distEntry{w, nd})
			}
		}
	}
	return dist
}

type distEntry struct {
	v graph.VertexID
	d float64
}

type distHeap []distEntry

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distEntry)) }
func (h *distHeap) Pop() any          { old := *h; x := old[len(old)-1]; *h = old[:len(old)-1]; return x }
