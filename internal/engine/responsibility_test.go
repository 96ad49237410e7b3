package engine

import (
	"testing"

	"adp/internal/gen"
	"adp/internal/graph"
	"adp/internal/partition"
)

// ResponsibleFor must place each (subject, arc) pair at exactly one
// worker, and at the subject's e-cut node whenever the subject is
// e-cut — the placement rule that makes migrations move work.
func TestResponsibleForSubjectPlacement(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 300, AvgDeg: 5, Exponent: 2.1, Directed: true, Seed: 3})
	assign := make([]int, g.NumVertices())
	for v := range assign {
		assign[v] = (v * 13) % 4
	}
	p, err := partition.FromVertexAssignment(g, assign, 4)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCluster(p)
	g.Edges(func(u, v graph.VertexID) bool {
		owners := 0
		ownerID := -1
		for i := 0; i < 4; i++ {
			if c.Worker(i).ResponsibleFor(v, u, v) {
				owners++
				ownerID = i
			}
		}
		if owners != 1 {
			t.Fatalf("(subject %d, arc %d->%d) responsible at %d workers", v, u, v, owners)
		}
		// v is e-cut in an edge-cut partition: the responsible worker
		// must be its owner fragment.
		if ownerID != assign[v] {
			t.Fatalf("arc into %d processed at %d, want owner %d", v, ownerID, assign[v])
		}
		return true
	})
}

func TestResponsibleForVCutSplit(t *testing.T) {
	g := gen.ErdosRenyi(120, 4, true, 9)
	// Vertex-cut: subjects are v-cut, responsibility falls back to the
	// lowest arc holder; still exactly one owner per (subject, arc).
	p, err := partition.FromEdgeAssignment(g, func(s, d graph.VertexID) int { return int(s^d) % 3 }, 3)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCluster(p)
	g.Edges(func(u, v graph.VertexID) bool {
		owners := 0
		for i := 0; i < 3; i++ {
			if c.Worker(i).ResponsibleFor(v, u, v) {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("(subject %d, arc %d->%d): %d owners", v, u, v, owners)
		}
		return true
	})
}

func TestAppendMirrors(t *testing.T) {
	g := gen.ErdosRenyi(80, 4, true, 5)
	assign := make([]int, g.NumVertices())
	for v := range assign {
		assign[v] = v % 3
	}
	p, err := partition.FromVertexAssignment(g, assign, 3)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCluster(p)
	for v := 0; v < g.NumVertices(); v++ {
		vid := graph.VertexID(v)
		for i := 0; i < 3; i++ {
			mirrors := c.Worker(i).AppendMirrors(nil, vid)
			if want := len(p.Copies(vid)); p.Fragment(i).Has(vid) && len(mirrors) != want-1 {
				t.Fatalf("vertex %d: %d mirrors from fragment %d, want %d", v, len(mirrors), i, want-1)
			}
			for _, mi := range mirrors {
				if mi == i {
					t.Fatalf("AppendMirrors(%d) includes self", v)
				}
			}
		}
	}
}
