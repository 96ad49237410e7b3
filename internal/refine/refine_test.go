package refine

import (
	"math"
	"testing"

	"adp/internal/algorithms"
	"adp/internal/costmodel"
	"adp/internal/engine"
	"adp/internal/gen"
	"adp/internal/graph"
	"adp/internal/partition"
	"adp/internal/partitioner"
)

func skewedDirected() *graph.Graph {
	return gen.PowerLaw(gen.PowerLawConfig{N: 1200, AvgDeg: 8, Exponent: 2.0, Directed: true, Seed: 91})
}

func skewedUndirected() *graph.Graph {
	return gen.PowerLaw(gen.PowerLawConfig{N: 900, AvgDeg: 6, Exponent: 2.1, Directed: false, Seed: 92})
}

// hubConcentratedEdgeCut builds an edge-cut that is balanced by vertex
// count but concentrates the low-id hubs of the power-law generator in
// fragment 0 — the Example-1 pathological input for CN.
func hubConcentratedEdgeCut(t testing.TB, g *graph.Graph, n int) *partition.Partition {
	t.Helper()
	nv := g.NumVertices()
	assign := make([]int, nv)
	for v := 0; v < nv; v++ {
		assign[v] = v * n / nv
	}
	p, err := partition.FromVertexAssignment(g, assign, n)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func parallelCost(p *partition.Partition, m costmodel.CostModel) float64 {
	return costmodel.ParallelCost(costmodel.Evaluate(p, m))
}

// countVCut counts vertices that are not e-cut (split computation).
func countVCut(p *partition.Partition) int {
	n := 0
	for v := 0; v < p.Graph().NumVertices(); v++ {
		if len(p.Copies(graph.VertexID(v))) > 0 && p.CompleteFragment(graph.VertexID(v)) < 0 {
			n++
		}
	}
	return n
}

func TestE2HReducesCNParallelCost(t *testing.T) {
	g := skewedDirected()
	m := costmodel.Reference(costmodel.CN)
	p := hubConcentratedEdgeCut(t, g, 4)
	before := parallelCost(p, m)
	stats := E2H(p, m, Config{})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	after := parallelCost(p, m)
	if after >= before {
		t.Fatalf("E2H did not reduce parallel cost: %v -> %v", before, after)
	}
	// On this pathological input the reduction should be substantial
	// (the paper reports 4.5-18x for CN; we require at least 1.5x).
	if before/after < 1.5 {
		t.Errorf("E2H speedup only %.2fx (%v -> %v)", before/after, before, after)
	}
	if stats.Migrated == 0 && stats.SplitEdges == 0 {
		t.Error("E2H did nothing on a skewed input")
	}
}

func TestE2HPreservesAlgorithmResults(t *testing.T) {
	g := skewedDirected()
	opts := algorithms.Options{CNTheta: 100, SSSPSource: 3}
	for _, algo := range []costmodel.Algo{costmodel.CN, costmodel.PR, costmodel.WCC, costmodel.SSSP} {
		want := algorithms.SeqOutcome(g, algo, opts)
		p := hubConcentratedEdgeCut(t, g, 4)
		E2H(p, costmodel.Reference(algo), Config{})
		if err := p.Validate(); err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		got, err := algorithms.Run(engine.NewCluster(p), algo, opts)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if got.Checksum != want.Checksum {
			t.Fatalf("%v: checksum changed after E2H", algo)
		}
		if math.Abs(got.Value-want.Value) > 1e-6*(1+math.Abs(want.Value)) {
			t.Fatalf("%v: value %v vs oracle %v after E2H", algo, got.Value, want.Value)
		}
	}
}

func TestE2HOnUndirectedTC(t *testing.T) {
	g := skewedUndirected()
	want := algorithms.TCSeq(g)
	p := hubConcentratedEdgeCut(t, g, 3)
	before := parallelCost(p, costmodel.Reference(costmodel.TC))
	E2H(p, costmodel.Reference(costmodel.TC), Config{})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	after := parallelCost(p, costmodel.Reference(costmodel.TC))
	if after > before*1.05 {
		t.Fatalf("E2H worsened TC cost: %v -> %v", before, after)
	}
	got, _, err := algorithms.RunTC(engine.NewCluster(p))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("TC after E2H = %d, want %d", got, want)
	}
}

func TestV2HReducesCostAndPreservesResults(t *testing.T) {
	g := skewedDirected()
	m := costmodel.Reference(costmodel.CN)
	// Grid vertex-cut: balanced edges but poor locality.
	p, err := partitioner.GridVertexCut(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	before := parallelCost(p, m)
	stats := V2H(p, m, Config{})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	after := parallelCost(p, m)
	if after > before*1.05 {
		t.Fatalf("V2H worsened parallel cost: %v -> %v", before, after)
	}
	if stats.Migrated == 0 && stats.Merged == 0 && stats.MastersMoved == 0 {
		t.Error("V2H made no changes at all")
	}
	opts := algorithms.Options{CNTheta: 100}
	want := algorithms.SeqOutcome(g, costmodel.CN, opts)
	got, err := algorithms.Run(engine.NewCluster(p), costmodel.CN, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Checksum != want.Checksum {
		t.Fatal("CN checksum changed after V2H")
	}
}

func TestV2HMergeReducesTCComm(t *testing.T) {
	g := skewedUndirected()
	m := costmodel.Reference(costmodel.TC)
	p, err := partitioner.GridVertexCut(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	before := costmodel.ParallelCost(costmodel.Evaluate(p, m))
	beforeVCut := countVCut(p)
	stats := V2H(p, m, Config{})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	after := costmodel.ParallelCost(costmodel.Evaluate(p, m))
	if stats.Merged == 0 {
		t.Error("VMerge merged nothing on a vertex-cut with many splits")
	}
	// Merging turns v-cut nodes into e-cut nodes, killing their gTC
	// term (I(v) = 0 once the master sits on the e-cut copy).
	if afterVCut := countVCut(p); afterVCut >= beforeVCut {
		t.Errorf("v-cut vertices did not decrease: %d -> %d", beforeVCut, afterVCut)
	}
	if after > before*1.05 {
		t.Errorf("V2H worsened the parallel cost: %v -> %v", before, after)
	}
	// Results still correct.
	want := algorithms.TCSeq(g)
	got, _, err := algorithms.RunTC(engine.NewCluster(p))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("TC after V2H = %d, want %d", got, want)
	}
}

func TestMAssignNeverIncreasesComp(t *testing.T) {
	g := skewedDirected()
	m := costmodel.Reference(costmodel.PR)
	p2 := hubConcentratedEdgeCut(t, g, 4)
	p3 := p2.Clone()
	E2H(p2, m, Config{Phases: 2})
	E2H(p3, m, Config{Phases: 3})
	comp2 := costmodel.TotalComp(costmodel.Evaluate(p2, m))
	comp3 := costmodel.TotalComp(costmodel.Evaluate(p3, m))
	if math.Abs(comp2-comp3) > 1e-9*(1+comp2) {
		t.Fatalf("MAssign changed computational cost: %v vs %v", comp2, comp3)
	}
}

func TestPhaseConfigMonotone(t *testing.T) {
	g := skewedDirected()
	m := costmodel.Reference(costmodel.CN)
	base := hubConcentratedEdgeCut(t, g, 4)
	costs := make([]float64, 4)
	costs[0] = parallelCost(base, m)
	for phases := 1; phases <= 3; phases++ {
		p := base.Clone()
		E2H(p, m, Config{Phases: phases})
		if err := p.Validate(); err != nil {
			t.Fatalf("phases=%d: %v", phases, err)
		}
		costs[phases] = parallelCost(p, m)
	}
	// Each additional phase may only help (small tolerance for the
	// probe approximation).
	for k := 1; k <= 3; k++ {
		if costs[k] > costs[k-1]*1.10 {
			t.Errorf("phase %d made things worse: %v -> %v", k, costs[k-1], costs[k])
		}
	}
}

func TestParallelMatchesValidity(t *testing.T) {
	g := skewedDirected()
	for _, algo := range costmodel.Algos() {
		if algo == costmodel.TC {
			continue
		}
		m := costmodel.Reference(algo)
		seqP := hubConcentratedEdgeCut(t, g, 4)
		parP := seqP.Clone()
		E2H(seqP, m, Config{})
		ParE2H(parP, m, Config{BatchSize: 16})
		if err := parP.Validate(); err != nil {
			t.Fatalf("%v: parallel refinement broke the partition: %v", algo, err)
		}
		seqCost := parallelCost(seqP, m)
		parCost := parallelCost(parP, m)
		if parCost > seqCost*1.25 {
			t.Errorf("%v: ParE2H cost %v far above sequential %v", algo, parCost, seqCost)
		}
	}
}

func TestParV2HValid(t *testing.T) {
	g := skewedDirected()
	m := costmodel.Reference(costmodel.PR)
	p, err := partitioner.NEVertexCut(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	before := parallelCost(p, m)
	ParV2H(p, m, Config{BatchSize: 8})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if after := parallelCost(p, m); after > before*1.10 {
		t.Errorf("ParV2H worsened cost: %v -> %v", before, after)
	}
}

func TestRefineDeterministic(t *testing.T) {
	g := skewedDirected()
	m := costmodel.Reference(costmodel.CN)
	p1 := hubConcentratedEdgeCut(t, g, 4)
	p2 := hubConcentratedEdgeCut(t, g, 4)
	s1 := E2H(p1, m, Config{})
	s2 := E2H(p2, m, Config{})
	if s1.Migrated != s2.Migrated || s1.SplitEdges != s2.SplitEdges || s1.MastersMoved != s2.MastersMoved {
		t.Fatalf("refinement not deterministic: %+v vs %+v", s1, s2)
	}
	for i := 0; i < 4; i++ {
		if p1.Fragment(i).NumArcs() != p2.Fragment(i).NumArcs() {
			t.Fatalf("fragment %d arc counts differ", i)
		}
	}
}

func TestForFamily(t *testing.T) {
	g := skewedDirected()
	m := costmodel.Reference(costmodel.PR)
	ec, _ := partitioner.HashEdgeCut(g, 3)
	if st := ForFamily(partitioner.EdgeCutFamily, ec, m, Config{}); st == nil {
		t.Fatal("edge-cut family should refine")
	}
	vc, _ := partitioner.GridVertexCut(g, 3)
	if st := ForFamily(partitioner.VertexCutFamily, vc, m, Config{}); st == nil {
		t.Fatal("vertex-cut family should refine")
	}
	hy, _ := partitioner.GingerHybrid(g, 3, partitioner.GingerConfig{})
	if st := ForFamily(partitioner.HybridFamily, hy, m, Config{}); st != nil {
		t.Fatal("hybrid baselines must pass through untouched")
	}
}

func TestGetCandidatesRespectsBudget(t *testing.T) {
	g := skewedDirected()
	m := costmodel.Reference(costmodel.CN)
	p := hubConcentratedEdgeCut(t, g, 4)
	tr := costmodel.NewTracker(p, m)
	// A huge budget keeps everything.
	if cands := getCandidates(tr, 0, 1e18, &BFS{}); len(cands) != 0 {
		t.Fatalf("infinite budget still produced %d candidates", len(cands))
	}
	// A zero budget evicts every computing vertex.
	all := getCandidates(tr, 0, 0, &BFS{})
	if len(all) != p.NonDummyCount(0) {
		t.Fatalf("zero budget: %d candidates, want %d", len(all), p.NonDummyCount(0))
	}
}

// Balanced inputs should be (nearly) untouched: SSSP on xtraPuLP is
// the paper's "not much can be improved" case (Exp-1(5)).
func TestBalancedInputMostlyUntouched(t *testing.T) {
	g := skewedDirected()
	m := costmodel.Reference(costmodel.SSSP)
	p, err := partitioner.HashEdgeCut(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	before := parallelCost(p, m)
	E2H(p, m, Config{})
	after := parallelCost(p, m)
	if after > before*1.05 {
		t.Fatalf("E2H hurt an already balanced partition: %v -> %v", before, after)
	}
}
