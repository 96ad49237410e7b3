package composite

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"adp/internal/algorithms"
	"adp/internal/costmodel"
	"adp/internal/engine"
	"adp/internal/gen"
	"adp/internal/graph"
	"adp/internal/partition"
	"adp/internal/partitioner"
	"adp/internal/pool"
	"adp/internal/refine"
)

func testGraph() *graph.Graph {
	return gen.PowerLaw(gen.PowerLawConfig{N: 900, AvgDeg: 7, Exponent: 2.1, Directed: true, Seed: 71})
}

func batchModels() []costmodel.CostModel {
	var out []costmodel.CostModel
	for _, a := range []costmodel.Algo{costmodel.CN, costmodel.WCC, costmodel.PR, costmodel.SSSP} {
		out = append(out, costmodel.Reference(a))
	}
	return out
}

func TestNewCompositeAndCore(t *testing.T) {
	g := testGraph()
	p1, _ := partitioner.HashEdgeCut(g, 3)
	p2 := p1.Clone()
	c, err := New(g, []*partition.Partition{p1, p2})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Identical partitions: everything is core, fc = fe of one copy.
	if c.StorageArcs() != p1.StorageArcs() {
		t.Fatalf("identical partitions should share all storage: %d vs %d",
			c.StorageArcs(), p1.StorageArcs())
	}
	if c.SeparateStorageArcs() != 2*p1.StorageArcs() {
		t.Fatal("separate storage accounting wrong")
	}
}

func TestCompositeDisjointPartitions(t *testing.T) {
	g := testGraph()
	p1, _ := partitioner.HashEdgeCut(g, 3)
	// A shifted assignment shares almost nothing fragment-by-fragment.
	assign := make([]int, g.NumVertices())
	for v := range assign {
		assign[v] = (v + 1) % 3
	}
	p2, err := partition.FromVertexAssignment(g, assign, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(g, []*partition.Partition{p1, p2})
	if err != nil {
		t.Fatal(err)
	}
	// Misaligned partitions share little (only coincidental cut-arc
	// replicas), so composite storage sits strictly between one copy
	// and the separate total.
	if c.StorageArcs() <= p1.StorageArcs() {
		t.Fatalf("misaligned partitions cannot be fully shared: %d vs %d",
			c.StorageArcs(), p1.StorageArcs())
	}
	if c.StorageArcs() > c.SeparateStorageArcs() {
		t.Fatalf("composite storage exceeds separate storage: %d vs %d",
			c.StorageArcs(), c.SeparateStorageArcs())
	}
}

func TestCompositeErrors(t *testing.T) {
	g := testGraph()
	if _, err := New(g, nil); err == nil {
		t.Fatal("empty partition list accepted")
	}
	p1, _ := partitioner.HashEdgeCut(g, 2)
	p2, _ := partitioner.HashEdgeCut(g, 3)
	if _, err := New(g, []*partition.Partition{p1, p2}); err == nil {
		t.Fatal("mismatched fragment counts accepted")
	}
	other := gen.ErdosRenyi(50, 2, true, 1)
	p3, _ := partitioner.HashEdgeCut(other, 2)
	if _, err := New(g, []*partition.Partition{p1, p3}); err == nil {
		t.Fatal("partition over a different graph accepted")
	}
}

func TestME2HEndToEnd(t *testing.T) {
	g := testGraph()
	models := batchModels()
	base, err := partitioner.FennelEdgeCut(g, 4, partitioner.FennelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	comp, stats, err := ME2H(base, models, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := comp.Validate(); err != nil {
		t.Fatal(err)
	}
	if stats.InitShared == 0 {
		t.Error("Init shared nothing — the core would be empty")
	}
	// (1) Compactness: the composite must beat separate storage.
	if comp.StorageArcs() >= comp.SeparateStorageArcs() {
		t.Errorf("no space saving: composite %d vs separate %d",
			comp.StorageArcs(), comp.SeparateStorageArcs())
	}
	// (2) Effectiveness: each bundled partition keeps its algorithm's
	// parallel cost within range of a dedicated E2H refinement.
	algos := []costmodel.Algo{costmodel.CN, costmodel.WCC, costmodel.PR, costmodel.SSSP}
	for j, algo := range algos {
		dedicated := base.Clone()
		refine.E2H(dedicated, models[j], refine.Config{})
		dedCost := costmodel.ParallelCost(costmodel.Evaluate(dedicated, models[j]))
		compCost := costmodel.ParallelCost(costmodel.Evaluate(comp.Partition(j), models[j]))
		if compCost > dedCost*1.6 {
			t.Errorf("%v: composite cost %v far above dedicated %v", algo, compCost, dedCost)
		}
	}
	// (3) Correctness: every algorithm still computes the right
	// answer over its bundled partition.
	opts := algorithms.Options{CNTheta: 80, SSSPSource: 2}
	for j, algo := range algos {
		want := algorithms.SeqOutcome(g, algo, opts)
		got, err := algorithms.Run(engine.NewCluster(comp.Partition(j)), algo, opts)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if got.Checksum != want.Checksum || math.Abs(got.Value-want.Value) > 1e-6*(1+math.Abs(want.Value)) {
			t.Fatalf("%v: wrong result over composite partition %d", algo, j)
		}
	}
}

func TestMV2HEndToEnd(t *testing.T) {
	g := testGraph()
	models := batchModels()
	base, err := partitioner.GridVertexCut(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	comp, stats, err := MV2H(base, models, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := comp.Validate(); err != nil {
		t.Fatal(err)
	}
	if stats.Assigned == 0 {
		t.Error("MV2H assigned nothing")
	}
	if comp.StorageArcs() >= comp.SeparateStorageArcs() {
		t.Errorf("no space saving: composite %d vs separate %d",
			comp.StorageArcs(), comp.SeparateStorageArcs())
	}
	opts := algorithms.Options{CNTheta: 80, SSSPSource: 2}
	for j, algo := range []costmodel.Algo{costmodel.CN, costmodel.WCC, costmodel.PR, costmodel.SSSP} {
		want := algorithms.SeqOutcome(g, algo, opts)
		got, err := algorithms.Run(engine.NewCluster(comp.Partition(j)), algo, opts)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if got.Checksum != want.Checksum || math.Abs(got.Value-want.Value) > 1e-6*(1+math.Abs(want.Value)) {
			t.Fatalf("%v: wrong result over composite partition %d", algo, j)
		}
	}
}

func TestME2HUndirectedTC(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 500, AvgDeg: 5, Exponent: 2.2, Directed: false, Seed: 72})
	models := []costmodel.CostModel{costmodel.Reference(costmodel.TC), costmodel.Reference(costmodel.WCC)}
	base, err := partitioner.FennelEdgeCut(g, 3, partitioner.FennelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	comp, _, err := ME2H(base, models, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := comp.Validate(); err != nil {
		t.Fatal(err)
	}
	want := algorithms.TCSeq(g)
	got, _, err := algorithms.RunTC(engine.NewCluster(comp.Partition(0)))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("TC over composite = %d, want %d", got, want)
	}
}

func TestCompositeSingleAlgorithmDegenerates(t *testing.T) {
	// ME2H with k=1 is (the assignment formulation of) E2H: same cost
	// ballpark as the in-place refiner.
	g := testGraph()
	m := costmodel.Reference(costmodel.CN)
	base, _ := partitioner.FennelEdgeCut(g, 4, partitioner.FennelConfig{})
	comp, _, err := ME2H(base, []costmodel.CostModel{m}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inPlace := base.Clone()
	refine.E2H(inPlace, m, refine.Config{})
	c1 := costmodel.ParallelCost(costmodel.Evaluate(comp.Partition(0), m))
	c2 := costmodel.ParallelCost(costmodel.Evaluate(inPlace, m))
	if c1 > c2*1.5 {
		t.Fatalf("ME2H(k=1) cost %v far above E2H %v", c1, c2)
	}
}

func TestDeleteEdgeCoherent(t *testing.T) {
	g := testGraph()
	models := batchModels()
	base, _ := partitioner.FennelEdgeCut(g, 3, partitioner.FennelConfig{})
	comp, _, err := ME2H(base, models, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Pick an existing arc.
	var u, w graph.VertexID
	g.Edges(func(a, b graph.VertexID) bool { u, w = a, b; return false })
	if !comp.DeleteEdge(u, w) {
		t.Fatal("DeleteEdge found no copies")
	}
	for j := 0; j < comp.K(); j++ {
		p := comp.Partition(j)
		for i := 0; i < comp.N(); i++ {
			if p.Fragment(i).HasArc(u, w) {
				t.Fatalf("partition %d fragment %d still holds the deleted arc", j, i)
			}
		}
	}
	if err := comp.ValidateIndex(); err != nil {
		t.Fatal(err)
	}
	if comp.DeleteEdge(u, w) {
		t.Fatal("double delete reported copies")
	}
	if nv := graph.VertexID(g.NumVertices()); comp.DeleteEdge(u, nv) || comp.DeleteEdge(nv, u) {
		t.Fatal("delete with an endpoint outside the graph reported copies")
	}
}

// TestDeleteDropsLastCopy: partition 0 holds the arc (0,1) in
// fragments 0 and 1, and both endpoints also have a copy in fragment
// 2. Removing the arc from fragment 0 drops that fragment's copy of its
// source (for an undirected graph, of the reverse arc's source) from
// the copies list DeleteEdge walks. The delete must still reach
// fragment 1 and leave the partitions coherent.
func TestDeleteDropsLastCopy(t *testing.T) {
	for _, undirected := range []bool{false, true} {
		t.Run(fmt.Sprintf("undirected=%v", undirected), func(t *testing.T) {
			g, err := graph.FromEdgesParallel(4, []graph.Edge{{Src: 0, Dst: 3}, {Src: 1, Dst: 3}}, undirected, pool.Serial())
			if err != nil {
				t.Fatal(err)
			}
			p1, p2 := partition.NewEmpty(g, 3), partition.NewEmpty(g, 3)
			for _, p := range []*partition.Partition{p1, p2} {
				p.AddEdge(2, 0, 3)
				p.AddEdge(2, 1, 3)
			}
			c, err := New(g, []*partition.Partition{p1, p2})
			if err != nil {
				t.Fatal(err)
			}
			for _, dest := range [][]int{{0, 2}, {1, 2}} {
				if err := c.InsertEdge(0, 1, dest); err != nil {
					t.Fatal(err)
				}
			}
			if !c.DeleteEdge(0, 1) {
				t.Fatal("DeleteEdge found no copies")
			}
			for j, p := range c.Partitions() {
				for i := 0; i < c.N(); i++ {
					if f := p.Fragment(i); f.HasArc(0, 1) || f.HasArc(1, 0) {
						t.Fatalf("partition %d fragment %d still holds the deleted edge", j, i)
					}
				}
				for _, x := range []graph.VertexID{0, 1} {
					if cs := p.Copies(x); !slices.Equal(cs, []int32{2}) {
						t.Fatalf("partition %d holds vertex %d in fragments %v, want [2]", j, x, cs)
					}
				}
			}
			if err := c.ValidateIndex(); err != nil {
				t.Fatal(err)
			}
			if c.DeleteEdge(0, 1) {
				t.Fatal("double delete reported copies")
			}
		})
	}
}

// TestValidateIndexCatchesIncoherence: an arc removed from, or added
// to, one bundled partition behind the composite's back leaves the
// partitions holding different edge sets, which ValidateIndex must
// report.
func TestValidateIndexCatchesIncoherence(t *testing.T) {
	g := testGraph()
	var u, v, w graph.VertexID // (u,v) is an edge of g, (u,w) is not
	g.Edges(func(a, b graph.VertexID) bool { u, v = a, b; return false })
	for w = 0; g.HasEdge(u, w); w++ {
	}
	cases := map[string]func(c *Composite){
		"partition 1 lost an arc": func(c *Composite) {
			p := c.Partition(1)
			for _, i := range slices.Clone(p.Copies(u)) {
				p.RemoveArc(int(i), u, v)
			}
		},
		"partition 0 gained an arc": func(c *Composite) { c.Partition(0).AddArc(0, u, w) },
	}
	for name, edit := range cases {
		c := buildTwoPartComposite(t)
		if err := c.ValidateIndex(); err != nil {
			t.Fatalf("%s: fresh composite: %v", name, err)
		}
		edit(c)
		if err := c.ValidateIndex(); err == nil {
			t.Errorf("%s: ValidateIndex returned nil", name)
		}
	}
}

func TestInsertEdgeCoherent(t *testing.T) {
	g := testGraph()
	p1, _ := partitioner.HashEdgeCut(g, 3)
	p2 := p1.Clone()
	comp, err := New(g, []*partition.Partition{p1, p2})
	if err != nil {
		t.Fatal(err)
	}
	beforeCore := comp.CoreArcs(1)
	// Aligned insertion lands in the core.
	if err := comp.InsertEdge(10, 20, []int{1, 1}); err != nil {
		t.Fatal(err)
	}
	if comp.CoreArcs(1) != beforeCore+1 {
		t.Fatalf("aligned insert should grow the core: %d -> %d", beforeCore, comp.CoreArcs(1))
	}
	core, _, present := comp.Locate(1, 10, 20)
	if !present || !core {
		t.Fatal("inserted arc not indexed as core")
	}
	// Divergent insertion lands in residuals.
	if err := comp.InsertEdge(11, 21, []int{0, 2}); err != nil {
		t.Fatal(err)
	}
	if core, res, present := comp.Locate(0, 11, 21); !present || core || len(res) != 1 || res[0] != 0 {
		t.Fatalf("divergent insert misindexed: core=%v res=%v present=%v", core, res, present)
	}
	if err := comp.ValidateIndex(); err != nil {
		t.Fatal(err)
	}
	// Errors.
	if err := comp.InsertEdge(1, 2, []int{0}); err == nil {
		t.Fatal("short destination list accepted")
	}
	if err := comp.InsertEdge(1, 2, []int{0, 9}); err == nil {
		t.Fatal("out-of-range destination accepted")
	}
}

func TestGetDestMinimisesReplication(t *testing.T) {
	// Build a scenario mirroring Example 14: four algorithms, four
	// fragments; fragment capacities arranged so one fragment accepts
	// three of the algorithms.
	g := testGraph()
	models := batchModels() // CN, WCC, PR, SSSP
	base, _ := partitioner.FennelEdgeCut(g, 4, partitioner.FennelConfig{})
	comp, _, err := ME2H(base, models, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The effect of GetDest shows up as fc well below k·fe_avg:
	// destinations overlap instead of scattering.
	var sepFE float64
	for j := 0; j < comp.K(); j++ {
		sepFE += float64(comp.Partition(j).StorageArcs())
	}
	if comp.FC() >= sepFE/float64(g.NumEdges())*0.9 {
		t.Errorf("fc = %v shows almost no overlap (separate = %v)",
			comp.FC(), sepFE/float64(g.NumEdges()))
	}
}
