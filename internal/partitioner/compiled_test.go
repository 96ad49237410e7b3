package partitioner

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"adp/internal/graph"
	"adp/internal/partition"
)

// TestConstructorsReturnCompiled: every partitioner hands back fragments
// in their flat execution form — built as arrays, not as maps that a
// later Compile has to fold.
func TestConstructorsReturnCompiled(t *testing.T) {
	specs := append(Baselines(), Extras()...)
	specs = append(specs, Spec{Name: "FennelStream", Run: func(g *graph.Graph, n int) (*partition.Partition, error) {
		return FennelStreamEdgeCut(g, n, FennelConfig{})
	}})
	if len(specs) != 8 {
		t.Fatalf("%d constructors listed, want all 8", len(specs))
	}
	g := testGraph(t)
	for _, s := range specs {
		p, err := s.Run(g, 4)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		for i := 0; i < p.NumFragments(); i++ {
			if !p.Fragment(i).Compiled() {
				t.Errorf("%s: fragment %d is not compiled", s.Name, i)
			}
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

// TestNEVertexCutMatchesMapBuild: NEVertexCut is, array for array,
// NewEmpty + the AddEdge calls of the same expansion + Compile (the
// reference internal/partition holds the other constructors to), on
// directed and undirected graphs with isolated vertices and self loops.
func TestNEVertexCutMatchesMapBuild(t *testing.T) {
	for _, directed := range []bool{true, false} {
		for _, n := range []int{1, 3, 8} {
			for seed := int64(0); seed < 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				b := graph.NewUndirectedBuilder(120)
				if directed {
					b = graph.NewBuilder(120)
				}
				b.KeepSelfLoops()
				for e := 0; e < 600; e++ { // vertices 100..119 stay isolated
					u, v := graph.VertexID(rng.Intn(100)), graph.VertexID(rng.Intn(rng.Intn(100)+1))
					if e%97 == 0 {
						v = u
					}
					b.AddEdge(u, v)
				}
				g := b.MustBuild()
				what := fmt.Sprintf("directed=%v n=%d seed=%d", directed, n, seed)

				got, err := NEVertexCut(g, n)
				if err != nil {
					t.Fatal(err)
				}
				want := partition.NewEmpty(g, n)
				neExpand(g, n, want.AddEdge)
				for v := 0; v < g.NumVertices(); v++ {
					if len(want.Copies(graph.VertexID(v))) == 0 {
						want.AddVertex(v%n, graph.VertexID(v))
					}
				}
				want.Compile()

				if err := got.Validate(); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				for i := 0; i < n; i++ {
					if !got.Fragment(i).Compiled() {
						t.Fatalf("%s: fragment %d is not compiled", what, i)
					}
					gp, wp := got.Fragment(i).Packed(), want.Fragment(i).Packed()
					same := slices.Equal(gp.IDs, wp.IDs) && slices.Equal(gp.Local, wp.Local) &&
						slices.Equal(got.Fragment(i).AppendSortedArcKeys(nil), want.Fragment(i).AppendSortedArcKeys(nil))
					for _, v := range gp.IDs {
						ga, wa := got.Fragment(i).Adjacency(v), want.Fragment(i).Adjacency(v)
						same = same && slices.Equal(ga.Out, wa.Out) && slices.Equal(ga.In, wa.In)
					}
					if !same {
						t.Fatalf("%s: fragment %d differs from the map-built base", what, i)
					}
				}
				for v := 0; v < g.NumVertices(); v++ {
					vid := graph.VertexID(v)
					if !slices.Equal(got.Copies(vid), want.Copies(vid)) || got.Master(vid) != want.Master(vid) || got.Owner(vid) != want.Owner(vid) {
						t.Fatalf("%s: vertex %d: copies %v master %d owner %d, map build has %v / %d / %d", what, v,
							got.Copies(vid), got.Master(vid), got.Owner(vid), want.Copies(vid), want.Master(vid), want.Owner(vid))
					}
				}
			}
		}
	}
}
