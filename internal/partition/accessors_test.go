package partition

import (
	"testing"

	"adp/internal/graph"
	"adp/internal/pool"
)

func TestStatusString(t *testing.T) {
	cases := map[Status]string{
		Absent:      "absent",
		ECutNode:    "e-cut",
		VCutNode:    "v-cut",
		DummyNode:   "dummy",
		Status(200): "invalid",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("Status(%d).String() = %q, want %q", s, got, want)
		}
	}
}

func TestFragmentAccessors(t *testing.T) {
	g := figure1G1(t)
	p := figure1bPartition(t, g)
	f := p.Fragment(1)
	if f.ID() != 1 {
		t.Fatalf("ID = %d", f.ID())
	}
	if adj := f.Adjacency(s5); adj == nil || len(adj.Out) != 2 {
		t.Fatalf("Adjacency(s5) = %+v", adj)
	}
	if f.Adjacency(graph.VertexID(99)) != nil {
		t.Fatal("Adjacency of absent vertex should be nil")
	}
	if p.Graph() != g {
		t.Fatal("Graph accessor broken")
	}
	if p.NumFragments() != 2 {
		t.Fatal("NumFragments accessor broken")
	}
}

func TestRemoveEdgeUndirected(t *testing.T) {
	g, err := graph.FromEdgesParallel(3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}, true, pool.Serial())
	if err != nil {
		t.Fatal(err)
	}
	p := NewEmpty(g, 1)
	p.AddEdge(0, 0, 1)
	p.AddEdge(0, 1, 2)
	if !p.RemoveEdge(0, 0, 1) {
		t.Fatal("RemoveEdge reported absent")
	}
	if p.Fragment(0).HasArc(0, 1) || p.Fragment(0).HasArc(1, 0) {
		t.Fatal("undirected pair not fully removed")
	}
	if p.RemoveEdge(0, 0, 1) {
		t.Fatal("double removal reported present")
	}
}

func TestStorageVertices(t *testing.T) {
	g := figure1G1(t)
	p := figure1bPartition(t, g)
	// 10 vertices + replicated border copies (s3, s4, t2, t3 appear
	// twice).
	if got := p.StorageVertices(); got != 14 {
		t.Fatalf("StorageVertices = %d, want 14", got)
	}
}

func TestIsEdgeCutRejectsVCut(t *testing.T) {
	g := figure1G1(t)
	p, err := FromEdgeAssignment(g, func(s, d graph.VertexID) int { return int(d) % 2 }, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.IsEdgeCut() {
		t.Fatal("a vertex-cut with split vertices claimed to be an edge-cut")
	}
}
