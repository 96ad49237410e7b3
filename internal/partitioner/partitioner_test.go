package partitioner

import (
	"testing"

	"adp/internal/gen"
	"adp/internal/graph"
	"adp/internal/partition"
)

func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	return gen.PowerLaw(gen.PowerLawConfig{N: 1500, AvgDeg: 8, Exponent: 2.1, Directed: true, Seed: 77})
}

func TestHashEdgeCut(t *testing.T) {
	g := testGraph(t)
	p, err := HashEdgeCut(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if !isEdgeCut(p) {
		t.Fatal("hash partition not an edge-cut")
	}
	m := p.ComputeMetrics()
	if m.LambdaV > 0.05 {
		t.Errorf("hash edge-cut vertex imbalance λv = %v", m.LambdaV)
	}
}

func TestFennelEdgeCut(t *testing.T) {
	g := testGraph(t)
	p, err := FennelEdgeCut(g, 4, FennelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if !isEdgeCut(p) {
		t.Fatal("fennel partition not an edge-cut")
	}
	m := p.ComputeMetrics()
	if m.LambdaV > 0.25 {
		t.Errorf("fennel vertex imbalance λv = %v beyond slack", m.LambdaV)
	}
	// Fennel should beat hash on locality (fewer replicated arcs).
	hash, _ := HashEdgeCut(g, 4)
	if p.ComputeMetrics().FE >= hash.ComputeMetrics().FE {
		t.Errorf("fennel fe %v not better than hash fe %v", m.FE, hash.ComputeMetrics().FE)
	}
}

func TestLabelPropEdgeCut(t *testing.T) {
	g := testGraph(t)
	p, err := LabelPropEdgeCut(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if !isEdgeCut(p) {
		t.Fatal("label-prop partition not an edge-cut")
	}
	if m := p.ComputeMetrics(); m.LambdaV > 0.25 {
		t.Errorf("label-prop λv = %v beyond slack", m.LambdaV)
	}
}

func TestGridVertexCut(t *testing.T) {
	g := testGraph(t)
	p, err := GridVertexCut(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if !isVertexCut(p) {
		t.Fatal("grid partition not a vertex-cut")
	}
	// Grid bound: each vertex touches at most 2r−1 fragments (r=2).
	r := 2
	for v := 0; v < g.NumVertices(); v++ {
		if got := len(p.Copies(graph.VertexID(v))); got > 2*r-1 {
			t.Fatalf("vertex %d replicated in %d fragments, grid bound is %d", v, got, 2*r-1)
		}
	}
}

func TestNEVertexCut(t *testing.T) {
	g := testGraph(t)
	p, err := NEVertexCut(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if !isVertexCut(p) {
		t.Fatal("NE partition not a vertex-cut")
	}
	// NE's whole point is locality: fv must beat Grid's (Table 3).
	grid, _ := GridVertexCut(g, 4)
	neFV := p.ComputeMetrics().FV
	gridFV := grid.ComputeMetrics().FV
	if neFV >= gridFV {
		t.Errorf("NE fv %v not better than Grid fv %v", neFV, gridFV)
	}
}

func TestNEVertexCutUndirected(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 600, AvgDeg: 5, Exponent: 2.2, Directed: false, Seed: 5})
	p, err := NEVertexCut(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if !isVertexCut(p) {
		t.Fatal("NE on undirected graph not a vertex-cut")
	}
}

func TestGingerHybrid(t *testing.T) {
	g := testGraph(t)
	p, err := GingerHybrid(g, 4, GingerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Ginger scatters hub in-edges: hubs must be replicated while the
	// overall cut stays arc-disjoint (fe = 1).
	if m := p.ComputeMetrics(); m.FE != 1 {
		t.Errorf("ginger fe = %v, want 1", m.FE)
	}
	hub := maxDegreeVertex(g)
	if p.Replication(hub) == 0 {
		t.Error("highest-degree vertex not split by Ginger")
	}
}

func TestTopoXHybrid(t *testing.T) {
	g := testGraph(t)
	p, err := TopoXHybrid(g, 4, TopoXConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if m := p.ComputeMetrics(); m.FE != 1 {
		t.Errorf("topox fe = %v, want 1", m.FE)
	}
}

func TestBaselinesRegistry(t *testing.T) {
	g := gen.ErdosRenyi(300, 4, true, 3)
	specs := Baselines()
	if len(specs) != 6 {
		t.Fatalf("expected 6 baselines, got %d", len(specs))
	}
	for _, s := range specs {
		p, err := s.Run(g, 3)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		switch s.Family {
		case EdgeCutFamily:
			if !isEdgeCut(p) {
				t.Errorf("%s should produce an edge-cut", s.Name)
			}
		case VertexCutFamily:
			if !isVertexCut(p) {
				t.Errorf("%s should produce a vertex-cut", s.Name)
			}
		}
	}
	if _, ok := ByName("Fennel"); !ok {
		t.Error("ByName(Fennel) missing")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName invented a partitioner")
	}
}

func TestPartitionersDeterministic(t *testing.T) {
	g := gen.ErdosRenyi(400, 5, true, 9)
	for _, s := range Baselines() {
		p1, err := s.Run(g, 3)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := s.Run(g, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if p1.Fragment(i).NumArcs() != p2.Fragment(i).NumArcs() ||
				p1.Fragment(i).NumVertices() != p2.Fragment(i).NumVertices() {
				t.Errorf("%s not deterministic (fragment %d)", s.Name, i)
			}
		}
	}
}

func TestSingleFragment(t *testing.T) {
	g := gen.ErdosRenyi(100, 3, true, 1)
	for _, s := range Baselines() {
		p, err := s.Run(g, 1)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%s n=1: %v", s.Name, err)
		}
		m := p.ComputeMetrics()
		if m.FV != 1 || m.FE != 1 {
			t.Errorf("%s n=1: fv=%v fe=%v, want 1/1", s.Name, m.FV, m.FE)
		}
	}
}

var sinkPartition *partition.Partition

func BenchmarkFennel(b *testing.B) {
	g := testGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := FennelEdgeCut(g, 8, FennelConfig{})
		if err != nil {
			b.Fatal(err)
		}
		sinkPartition = p
	}
}

func BenchmarkNE(b *testing.B) {
	g := testGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := NEVertexCut(g, 8)
		if err != nil {
			b.Fatal(err)
		}
		sinkPartition = p
	}
}

func TestExtrasRegistry(t *testing.T) {
	g := gen.ErdosRenyi(300, 4, true, 4)
	for _, s := range Extras() {
		p, err := s.Run(g, 3)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
	}
	if _, ok := ByName("Hash"); !ok {
		t.Error("ByName should find Hash")
	}
}
