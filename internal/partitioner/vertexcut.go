package partitioner

import (
	"math"

	"adp/internal/graph"
	"adp/internal/partition"
)

// GridVertexCut implements the 2-D hash (grid) vertex-cut of
// GraphBuilder [28]: fragments are arranged in an r×r grid, vertex u
// hashes to row h(u) and vertex v to column h(v); the edge (u,v) is
// placed in the fragment at their intersection. Each vertex's edges
// touch at most 2r−1 fragments, giving the provable replication
// bound.
func GridVertexCut(g *graph.Graph, n int) (*partition.Partition, error) {
	r := int(math.Ceil(math.Sqrt(float64(n))))
	assigner := func(s, d graph.VertexID) int {
		row := int(mix(uint64(s)) % uint64(r))
		col := int(mix(uint64(d)) % uint64(r))
		return (row*r + col) % n
	}
	return partition.FromEdgeAssignment(g, assigner, n)
}

// mix is a 64-bit finaliser (splitmix64) for well-spread hashing of
// dense vertex ids.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// HDRFConfig tunes the HDRF streaming vertex-cut partitioner.
type HDRFConfig struct {
	// Lambda weights the balance term against replication affinity.
	// CREP can reach ~3 when both endpoints already live in a
	// fragment, so the default of 4 lets an underloaded fragment win
	// against a fully-affine one; smaller values trade balance for
	// replication.
	Lambda float64
}

// HDRFVertexCut implements High-Degree Replicated First [43]: edges
// stream in order; each edge goes to the fragment maximising a score
// that prefers fragments already holding the lower-degree endpoint
// (replicating high-degree vertices instead) plus a load-balance term.
func HDRFVertexCut(g *graph.Graph, n int, cfg HDRFConfig) (*partition.Partition, error) {
	if cfg.Lambda == 0 {
		cfg.Lambda = 4.0
	}
	nv := g.NumVertices()
	// Partial degree counters, per the streaming formulation.
	pdeg := make([]int, nv)
	inFrag := make([]map[int]bool, nv)
	loads := make([]int, n)
	maxLoad, minLoad := 0, 0

	score := func(u, v graph.VertexID, i int) float64 {
		du, dv := float64(pdeg[u])+1, float64(pdeg[v])+1
		thetaU := du / (du + dv)
		thetaV := 1 - thetaU
		var crep float64
		if inFrag[u] != nil && inFrag[u][i] {
			crep += 1 + (1 - thetaU)
		}
		if inFrag[v] != nil && inFrag[v][i] {
			crep += 1 + (1 - thetaV)
		}
		denom := float64(maxLoad-minLoad) + 1
		cbal := cfg.Lambda * float64(maxLoad-loads[i]) / denom
		return crep + cbal
	}

	assigner := func(s, d graph.VertexID) int {
		best, bestScore := 0, math.Inf(-1)
		for i := 0; i < n; i++ {
			if sc := score(s, d, i); sc > bestScore {
				best, bestScore = i, sc
			}
		}
		pdeg[s]++
		pdeg[d]++
		for _, v := range []graph.VertexID{s, d} {
			if inFrag[v] == nil {
				inFrag[v] = map[int]bool{}
			}
			inFrag[v][best] = true
		}
		loads[best]++
		maxLoad, minLoad = loads[0], loads[0]
		for _, l := range loads[1:] {
			if l > maxLoad {
				maxLoad = l
			}
			if l < minLoad {
				minLoad = l
			}
		}
		return best
	}
	return partition.FromEdgeAssignment(g, assigner, n)
}

// NEConfig tunes the neighbourhood-expansion vertex-cut partitioner.
type NEConfig struct {
	Slack float64 // per-fragment edge budget slack, default 0.05
}

// NEVertexCut implements a neighbourhood-expansion vertex-cut in the
// spirit of Zhang et al. [53]: fragments are grown one at a time from
// a seed by repeatedly absorbing the boundary vertex with the fewest
// unassigned external neighbours and claiming its unassigned incident
// edges, until the fragment's edge budget is met. This maximises
// locality (low fv) at the price of some edge imbalance, matching the
// paper's Table 3 observation (NE: fv 2.7, λv 8.0).
func NEVertexCut(g *graph.Graph, n int, cfg NEConfig) (*partition.Partition, error) {
	b := partition.NewBuilder(g, n)
	neExpand(g, n, cfg, b.AddEdge)
	// Isolated vertices go round-robin.
	return b.Build(func(v graph.VertexID) int { return int(v) % n }), nil
}

// neExpand runs the expansion and hands every edge of g, once, to place
// with the fragment that claimed it (an undirected edge smaller endpoint
// first).
func neExpand(g *graph.Graph, n int, cfg NEConfig, place func(i int, u, v graph.VertexID)) {
	if cfg.Slack == 0 {
		cfg.Slack = 0.05
	}
	totalArcs := g.NumEdges()
	if g.Undirected() {
		totalArcs = g.NumUndirectedEdges()
	}
	budget := int((1 + cfg.Slack) * float64(totalArcs) / float64(n))

	nv := g.NumVertices()
	assignedEdge := make(map[uint64]bool, totalArcs)
	edgeKey := func(u, v graph.VertexID) uint64 {
		if g.Undirected() && u > v {
			u, v = v, u
		}
		return uint64(u)<<32 | uint64(v)
	}
	claimed := make([]bool, nv) // vertex fully processed (all incident edges assigned)

	// unassignedDeg counts incident edges not yet assigned.
	unassignedDeg := make([]int, nv)
	for v := 0; v < nv; v++ {
		unassignedDeg[v] = g.OutDegree(graph.VertexID(v)) + g.InDegree(graph.VertexID(v))
		if g.Undirected() {
			unassignedDeg[v] = g.OutDegree(graph.VertexID(v))
		}
	}

	// claimVertex assigns all still-unassigned edges incident to v to
	// fragment i, returning how many edges were claimed.
	claimVertex := func(i int, v graph.VertexID, boundary map[graph.VertexID]bool) int {
		count := 0
		absorb := func(u, w graph.VertexID) {
			k := edgeKey(u, w)
			if assignedEdge[k] {
				return
			}
			assignedEdge[k] = true
			place(i, graph.VertexID(k>>32), graph.VertexID(k))
			count++
			unassignedDeg[u]--
			unassignedDeg[w]--
		}
		for _, w := range g.OutNeighbors(v) {
			absorb(v, w)
			if !claimed[w] {
				boundary[w] = true
			}
		}
		for _, w := range g.InNeighbors(v) {
			absorb(w, v)
			if !claimed[w] {
				boundary[w] = true
			}
		}
		claimed[v] = true
		delete(boundary, v)
		return count
	}

	next := 0 // scan cursor for seed selection
	for i := 0; i < n; i++ {
		fragEdges := 0
		boundary := map[graph.VertexID]bool{}
		for fragEdges < budget {
			var pick graph.VertexID
			found := false
			if len(boundary) > 0 {
				// Deterministically choose the boundary vertex with
				// the fewest unassigned incident edges; ties break
				// toward the smaller id, so the map scan order does
				// not matter.
				best := -1
				for v := range boundary {
					if best < 0 || unassignedDeg[v] < unassignedDeg[best] ||
						(unassignedDeg[v] == unassignedDeg[best] && int(v) < best) {
						best = int(v)
					}
				}
				pick, found = graph.VertexID(best), true
			} else {
				for next < nv {
					if !claimed[next] && unassignedDeg[next] > 0 {
						pick, found = graph.VertexID(next), true
						break
					}
					next++
				}
			}
			if !found {
				break
			}
			fragEdges += claimVertex(i, pick, boundary)
		}
		if i == n-1 {
			// Last fragment absorbs everything left.
			for v := 0; v < nv; v++ {
				if unassignedDeg[v] > 0 {
					claimVertex(i, graph.VertexID(v), boundary)
				}
			}
		}
	}
}
