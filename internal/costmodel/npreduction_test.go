package costmodel

import (
	"testing"

	"adp/internal/graph"
	"adp/internal/partition"
)

// Theorem 1 reduces SET-PARTITION to ADP: given integers S, build the
// clique collection K_{s1},...,K_{sm}, n = 2, B = ΣS/2, hA(v) = 1 and
// gA(v) = r(v)−1 (each counted at... the reduction counts r−1 per
// replicated vertex; we charge it at the master, which is equivalent
// since every replicated vertex has exactly one master). A partition
// of the cliques into two equal-sum halves achieves parallel cost
// exactly B; any split of a clique forces replication and pushes the
// cost above B.
// cliqueCollection is the Theorem-1 reduction graph: a disjoint union
// of cliques K_{sizes[0]}, K_{sizes[1]}, ...
func cliqueCollection(sizes []int) *graph.Graph {
	n := 0
	for _, s := range sizes {
		n += s
	}
	b := graph.NewUndirectedBuilder(n)
	base := 0
	for _, s := range sizes {
		for i := 0; i < s; i++ {
			for j := i + 1; j < s; j++ {
				b.AddEdge(graph.VertexID(base+i), graph.VertexID(base+j))
			}
		}
		base += s
	}
	return b.MustBuild()
}

func TestCliqueCollection(t *testing.T) {
	g := cliqueCollection([]int{3, 4, 2})
	if g.NumVertices() != 9 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	// K3 + K4 + K2 = 3 + 6 + 1 undirected edges.
	if g.NumUndirectedEdges() != 10 {
		t.Fatalf("edges = %d, want 10", g.NumUndirectedEdges())
	}
	_, comps := graph.ConnectedComponents(g)
	if comps != 3 {
		t.Fatalf("components = %d, want 3", comps)
	}
}

func reductionModel() CostModel {
	return CostModel{
		H: Func(func(x Vars) float64 { return 1 }),
		G: Func(func(x Vars) float64 { return x[Repl] }),
	}
}

func TestSetPartitionReductionYesInstance(t *testing.T) {
	// S = {3, 1, 4, 2, 5, 5} sums to 20; {5,4,1} vs {5,3,2} splits it.
	sizes := []int{3, 1, 4, 2, 5, 5}
	g := cliqueCollection(sizes)
	b := 10.0

	// Assign cliques 2(K4), 4(K5) and 1(K1) to fragment 0, rest to 1.
	assign := make([]int, g.NumVertices())
	base := 0
	fragOf := []int{1, 0, 0, 1, 0, 1} // per clique: sums 4+5+1 = 10 vs 3+2+5
	for ci, s := range sizes {
		for k := 0; k < s; k++ {
			assign[base+k] = fragOf[ci]
		}
		base += s
	}
	p, err := partition.FromVertexAssignment(g, assign, 2)
	if err != nil {
		t.Fatal(err)
	}
	costs := Evaluate(p, reductionModel())
	if got := ParallelCost(costs); got != b {
		t.Fatalf("equal-sum clique partition has parallel cost %v, want exactly B=%v", got, b)
	}
	// No replication: zero communication.
	if costs[0].Comm != 0 || costs[1].Comm != 0 {
		t.Fatalf("clique-aligned partition should have no replication cost, got %+v", costs)
	}
}

func TestSetPartitionReductionSplitCliqueCostsMore(t *testing.T) {
	sizes := []int{3, 1, 4, 2, 5, 5}
	g := cliqueCollection(sizes)
	b := 10.0

	// Split the first K5 (vertices 10..14) across the two fragments:
	// its vertices replicate (cut arcs land on both sides), so either
	// a fragment exceeds B in hA count or gA kicks in.
	assign := make([]int, g.NumVertices())
	base := 0
	fragOf := []int{1, 0, 0, 1, 0, 1}
	for ci, s := range sizes {
		for k := 0; k < s; k++ {
			assign[base+k] = fragOf[ci]
		}
		base += s
	}
	// Move two vertices of the fragment-0 K5 (clique index 4,
	// vertices 10..14) over to fragment 1.
	assign[10], assign[11] = 1, 1
	p, err := partition.FromVertexAssignment(g, assign, 2)
	if err != nil {
		t.Fatal(err)
	}
	costs := Evaluate(p, reductionModel())
	if got := ParallelCost(costs); got <= b {
		t.Fatalf("splitting a clique should exceed B=%v, got %v", b, got)
	}
}

// The reduction's forward direction at a glance: for every balanced
// clique-aligned assignment the bound B is met, so ADP answers yes
// exactly when SET-PARTITION does on this instance family.
func TestSetPartitionReductionCliquesStayWhole(t *testing.T) {
	sizes := []int{2, 2, 4}
	g := cliqueCollection(sizes)
	assign := make([]int, g.NumVertices())
	for v := 0; v < 4; v++ {
		assign[v] = 0 // K2 + K2
	}
	for v := 4; v < 8; v++ {
		assign[v] = 1 // K4
	}
	p, err := partition.FromVertexAssignment(g, assign, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := ParallelCost(Evaluate(p, reductionModel())); got != 4 {
		t.Fatalf("parallel cost %v, want B=4", got)
	}
	for v := 0; v < g.NumVertices(); v++ {
		if p.Replication(graph.VertexID(v)) != 0 {
			t.Fatalf("vertex %d replicated in a clique-aligned partition", v)
		}
	}
}
