// Package partitioner implements the baseline graph partitioners the
// paper compares against and refines (Section 7): edge-cut
// partitioners (hash, the streaming Fennel of [47], and a
// label-propagation partitioner in the spirit of xtraPuLP [46]),
// vertex-cut partitioners (the Grid hash partitioner of [28] and a
// neighbourhood-expansion partitioner in the spirit of NE [53]), and
// the hybrid baselines Ginger [16] and TopoX [35].
//
// Every partitioner returns a *partition.Partition so the refiners of
// Sections 5–6 can post-process any of them uniformly.
package partitioner

import (
	"math"

	"adp/internal/graph"
	"adp/internal/partition"
)

// HashEdgeCut assigns vertex v to fragment v mod n: the trivial
// edge-cut baseline.
func HashEdgeCut(g *graph.Graph, n int) (*partition.Partition, error) {
	assign := make([]int, g.NumVertices())
	for v := range assign {
		assign[v] = v % n
	}
	return partition.FromVertexAssignment(g, assign, n)
}

// FennelConfig tunes the streaming Fennel partitioner.
type FennelConfig struct {
	Gamma float64 // objective exponent, default 1.5
	Slack float64 // capacity slack ν: |Vi| ≤ ν·|V|/n, default 1.1
}

func (c *FennelConfig) defaults() {
	if c.Gamma == 0 {
		c.Gamma = 1.5
	}
	if c.Slack == 0 {
		c.Slack = 1.1
	}
}

// fennel is the Fennel objective of Tsourakakis et al. shared by
// FennelEdgeCut and FennelStream: a vertex goes to the fragment
// maximising |N(v) ∩ Vi| − α·γ·|Vi|^(γ−1) among those below the
// capacity cap, or to the smallest when every fragment is full.
type fennel struct {
	gamma, alpha float64
	capLimit     int
	sizes        []int
	// neighborIn counts the vertex's placed neighbours per fragment; the
	// caller loads it, place consumes and clears it.
	neighborIn []int
}

func newFennel(n, nv int, m int64, cfg FennelConfig) fennel {
	cfg.defaults()
	return fennel{
		gamma:      cfg.Gamma,
		alpha:      float64(m) * math.Pow(float64(n), cfg.Gamma-1) / math.Pow(float64(nv), cfg.Gamma),
		capLimit:   int(cfg.Slack*float64(nv)/float64(n)) + 1,
		sizes:      make([]int, n),
		neighborIn: make([]int, n),
	}
}

// place picks the fragment for the vertex whose neighbour counts are
// loaded, charges it one vertex and clears the counts.
func (f *fennel) place() int {
	best, bestScore := -1, math.Inf(-1)
	for i, size := range f.sizes {
		if size >= f.capLimit {
			continue
		}
		score := float64(f.neighborIn[i]) - f.alpha*f.gamma*math.Pow(float64(size), f.gamma-1)
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	if best < 0 { // every fragment at capacity: put in the smallest
		for i := range f.sizes {
			if best < 0 || f.sizes[i] < f.sizes[best] {
				best = i
			}
		}
	}
	f.sizes[best]++
	clear(f.neighborIn)
	return best
}

// FennelEdgeCut implements the one-pass streaming heuristic of
// Tsourakakis et al.: vertices stream in id order and each goes where
// the Fennel objective puts it, neighbours on either edge direction
// counting once placed.
func FennelEdgeCut(g *graph.Graph, n int, cfg FennelConfig) (*partition.Partition, error) {
	nv := g.NumVertices()
	obj := newFennel(n, nv, g.NumEdges(), cfg)
	assign := make([]int, nv)
	for i := range assign {
		assign[i] = -1
	}
	count := func(w graph.VertexID) {
		if a := assign[w]; a >= 0 {
			obj.neighborIn[a]++
		}
	}
	for v := 0; v < nv; v++ {
		for _, w := range g.OutNeighbors(graph.VertexID(v)) {
			count(w)
		}
		for _, w := range g.InNeighbors(graph.VertexID(v)) {
			count(w)
		}
		assign[v] = obj.place()
	}
	return partition.FromVertexAssignment(g, assign, n)
}

// The label-propagation partitioner's sweep budget and size slack: a
// fragment may grow to (1+labelPropSlack)·avg.
const (
	labelPropIterations = 8
	labelPropSlack      = 0.1
)

// LabelPropEdgeCut is a size-constrained label-propagation partitioner
// in the spirit of (xtra)PuLP: vertices start round-robin and
// repeatedly adopt the fragment most common among their neighbours
// when the move keeps fragment sizes within the slack.
func LabelPropEdgeCut(g *graph.Graph, n int) (*partition.Partition, error) {
	nv := g.NumVertices()
	assign := make([]int, nv)
	sizes := make([]int, n)
	for v := range assign {
		assign[v] = v % n
		sizes[v%n]++
	}
	capLimit := int((1+labelPropSlack)*float64(nv)/float64(n)) + 1
	votes := make([]int, n)
	for it := 0; it < labelPropIterations; it++ {
		moved := 0
		for v := 0; v < nv; v++ {
			for i := range votes {
				votes[i] = 0
			}
			for _, w := range g.OutNeighbors(graph.VertexID(v)) {
				votes[assign[w]]++
			}
			for _, w := range g.InNeighbors(graph.VertexID(v)) {
				votes[assign[w]]++
			}
			cur := assign[v]
			best := cur
			for i := 0; i < n; i++ {
				if i == cur || sizes[i] >= capLimit {
					continue
				}
				if votes[i] > votes[best] {
					best = i
				}
			}
			if best != cur {
				assign[v] = best
				sizes[cur]--
				sizes[best]++
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
	return partition.FromVertexAssignment(g, assign, n)
}
