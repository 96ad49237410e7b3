package algorithms

import (
	"testing"
	"testing/quick"

	"adp/internal/engine"
	"adp/internal/gen"
	"adp/internal/graph"
	"adp/internal/partitioner"
)

// cliques is the disjoint union K_{sizes[0]} + K_{sizes[1]} + ...,
// ids allotted clique by clique.
func cliques(sizes ...int) *graph.Graph {
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

// bruteTriangles counts triangles by enumerating all vertex triples —
// the unimpeachable O(n³) oracle for small graphs.
func bruteTriangles(g *graph.Graph) int64 {
	n := g.NumVertices()
	var count int64
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if !g.HasEdge(graph.VertexID(a), graph.VertexID(b)) {
				continue
			}
			for c := b + 1; c < n; c++ {
				if g.HasEdge(graph.VertexID(a), graph.VertexID(c)) &&
					g.HasEdge(graph.VertexID(b), graph.VertexID(c)) {
					count++
				}
			}
		}
	}
	return count
}

// Property: the degree-ordered TCSeq agrees with brute-force triple
// enumeration on arbitrary random undirected graphs (including heavy
// degree ties, which stress the (degree, id) tie-break).
func TestQuickTCSeqMatchesBruteForce(t *testing.T) {
	f := func(seed int64, density uint8) bool {
		avg := float64(density%5) + 1
		g := gen.ErdosRenyi(40, avg, false, seed)
		return TCSeq(g) == bruteTriangles(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: distributed TC agrees with TCSeq over random vertex-cut
// partitions of random graphs.
func TestQuickRunTCMatchesSeq(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.ErdosRenyi(60, 3, false, seed)
		p, err := partitioner.GridVertexCut(g, 3)
		if err != nil {
			return false
		}
		got, _, err := RunTC(engine.NewCluster(p))
		if err != nil {
			return false
		}
		return got == TCSeq(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Degree ties everywhere: complete graphs have uniform degree, so the
// ordering falls back to ids; K_n has C(n,3) triangles.
func TestTCCompleteGraphs(t *testing.T) {
	for _, n := range []int{3, 4, 5, 6, 8} {
		g := cliques(n)
		want := int64(n * (n - 1) * (n - 2) / 6)
		if got := TCSeq(g); got != want {
			t.Fatalf("K%d: TCSeq = %d, want %d", n, got, want)
		}
		p, err := partitioner.NEVertexCut(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := RunTC(engine.NewCluster(p))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("K%d distributed: %d, want %d", n, got, want)
		}
	}
}
