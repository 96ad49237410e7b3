package refine

import (
	"adp/internal/graph"
	"adp/internal/partition"
)

// RouteFragment picks the fragment with the strongest presence of the
// edge's endpoints (owner copies count double), defaulting to the
// least-loaded fragment for fresh vertices. The durable store reuses
// it to derive default destination vectors for logged inserts.
func RouteFragment(p *partition.Partition, u, v graph.VertexID) int {
	votes := make([]int, p.NumFragments())
	for _, vid := range []graph.VertexID{u, v} {
		if int(vid) >= p.Graph().NumVertices() {
			continue
		}
		for _, c := range p.Copies(vid) {
			votes[c]++
			if p.Owner(vid) == int(c) {
				votes[c]++
			}
		}
	}
	best, bestVotes := 0, -1
	for i, n := range votes {
		if n > bestVotes {
			best, bestVotes = i, n
		}
	}
	if bestVotes > 0 {
		return best
	}
	// No presence anywhere: least-loaded fragment.
	best = 0
	for i := 1; i < p.NumFragments(); i++ {
		if p.Fragment(i).NumArcs() < p.Fragment(best).NumArcs() {
			best = i
		}
	}
	return best
}
