package partitioner

import (
	"testing"

	"adp/internal/gen"
)

func TestMultilevelEdgeCut(t *testing.T) {
	g := testGraph(t)
	p, err := MultilevelEdgeCut(g, 4, MultilevelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if !isEdgeCut(p) {
		t.Fatal("multilevel partition not an edge-cut")
	}
	m := p.ComputeMetrics()
	if m.LambdaV > 0.5 {
		t.Errorf("multilevel vertex imbalance λv = %v", m.LambdaV)
	}
	// Multilevel should beat hash on locality.
	hash, _ := HashEdgeCut(g, 4)
	if m.FE >= hash.ComputeMetrics().FE {
		t.Errorf("multilevel fe %v not better than hash %v", m.FE, hash.ComputeMetrics().FE)
	}
}

func TestMultilevelOnGrid(t *testing.T) {
	// Grids coarsen perfectly and region-growing should produce
	// contiguous blocks with low cut.
	g := gen.Grid2D(30, 30)
	p, err := MultilevelEdgeCut(g, 3, MultilevelConfig{CoarsestSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	m := p.ComputeMetrics()
	// A 30x30 grid cut into 3 parts should replicate well under 30%
	// of arcs.
	if m.FE > 1.3 {
		t.Errorf("grid multilevel cut too large: fe = %v", m.FE)
	}
}

func TestMultilevelCoarseningProgress(t *testing.T) {
	g := gen.ErdosRenyi(2000, 6, true, 8)
	parent, coarse := heavyEdgeMatch(g)
	if coarse.NumVertices() >= g.NumVertices() {
		t.Fatal("matching made no progress on a random graph")
	}
	if len(parent) != g.NumVertices() {
		t.Fatal("parent map wrong length")
	}
	for v, p := range parent {
		if p < 0 || p >= coarse.NumVertices() {
			t.Fatalf("vertex %d has invalid parent %d", v, p)
		}
	}
	if err := coarse.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDBHVertexCut(t *testing.T) {
	g := testGraph(t)
	p, err := DBHVertexCut(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if !isVertexCut(p) {
		t.Fatal("DBH partition not a vertex-cut")
	}
	// DBH's point: replicate hubs, keep low-degree vertices whole. Its
	// fv should beat Grid's.
	grid, _ := GridVertexCut(g, 4)
	if p.ComputeMetrics().FV >= grid.ComputeMetrics().FV {
		t.Errorf("DBH fv %v not better than Grid %v",
			p.ComputeMetrics().FV, grid.ComputeMetrics().FV)
	}
	hub := maxDegreeVertex(g)
	if p.Replication(hub) == 0 {
		t.Error("DBH did not replicate the hub")
	}
}
