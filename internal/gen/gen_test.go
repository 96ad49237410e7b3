package gen

import (
	"testing"

	"adp/internal/graph"
)

func TestPowerLawDeterministic(t *testing.T) {
	cfg := PowerLawConfig{N: 500, AvgDeg: 6, Exponent: 2.2, Directed: true, Seed: 9}
	a, b := PowerLaw(cfg), PowerLaw(cfg)
	if a.NumEdges() != b.NumEdges() || a.NumVertices() != b.NumVertices() {
		t.Fatal("generator not deterministic")
	}
}

func TestPowerLawShape(t *testing.T) {
	g := PowerLaw(PowerLawConfig{N: 2000, AvgDeg: 10, Exponent: 2.0, Directed: true, Seed: 1})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Heavy skew: the max degree should dwarf the average.
	maxDeg := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.InDegree(graph.VertexID(v)); d > maxDeg {
			maxDeg = d
		}
	}
	if float64(maxDeg) < 5*g.AvgDegree() {
		t.Fatalf("power-law graph not skewed: max in-degree %d, avg %f", maxDeg, g.AvgDegree())
	}
	// No isolated vertices.
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(graph.VertexID(v)) == 0 {
			t.Fatalf("vertex %d isolated", v)
		}
	}
}

func TestPowerLawUndirected(t *testing.T) {
	g := PowerLaw(PowerLawConfig{N: 300, AvgDeg: 4, Exponent: 2.3, Directed: false, Seed: 5})
	if !g.Undirected() {
		t.Fatal("expected undirected graph")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestErdosRenyi(t *testing.T) {
	g := ErdosRenyi(1000, 8, true, 3)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	m := float64(g.NumEdges())
	if m < 6000 || m > 8100 {
		t.Fatalf("ER edge count %v far from expected ~8000", m)
	}
}

func TestGrid2D(t *testing.T) {
	g := Grid2D(4, 5)
	if g.NumVertices() != 20 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	// 4x5 grid: horizontal 4*4=16, vertical 3*5=15 undirected edges.
	if g.NumUndirectedEdges() != 31 {
		t.Fatalf("undirected edges = %d, want 31", g.NumUndirectedEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Corner degree 2, interior degree 4.
	if g.Degree(0) != 2 {
		t.Fatalf("corner degree = %d", g.Degree(0))
	}
	if g.Degree(graph.VertexID(1*5+1)) != 4 {
		t.Fatalf("interior degree = %d", g.Degree(6))
	}
}

func TestRMAT(t *testing.T) {
	g := RMAT(RMATConfig{Scale: 10, AvgDeg: 8, A: 0.57, B: 0.19, C: 0.19, Directed: true, Seed: 2})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 1024 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	if g.NumEdges() == 0 {
		t.Fatal("no edges generated")
	}
}

func TestDatasetsBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("datasets are large for -short")
	}
	for name, f := range map[string]func() *graph.Graph{
		"socialSmall": SocialSmall,
		"roadLike":    RoadLike,
	} {
		g := f()
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.NumVertices() == 0 || g.NumEdges() == 0 {
			t.Fatalf("%s empty", name)
		}
	}
}

func TestTrainingGraphsDiverse(t *testing.T) {
	gs := TrainingGraphs()
	if len(gs) != 10 {
		t.Fatalf("want 10 training graphs, got %d", len(gs))
	}
	for i, g := range gs {
		if err := g.Validate(); err != nil {
			t.Fatalf("graph %d: %v", i, err)
		}
	}
}

func TestScaledGrows(t *testing.T) {
	g1, g2 := Scaled(1), Scaled(2)
	if g2.NumVertices() != 2*g1.NumVertices() {
		t.Fatalf("Scaled(2) has %d vertices, Scaled(1) has %d", g2.NumVertices(), g1.NumVertices())
	}
	if g2.NumEdges() < g1.NumEdges() {
		t.Fatal("Scaled(2) has fewer edges than Scaled(1)")
	}
}
