package algorithms

import (
	"context"
	"errors"
	"math"
	"testing"

	"adp/internal/costmodel"
	"adp/internal/engine"
	"adp/internal/gen"
	"adp/internal/graph"
	"adp/internal/partition"
	"adp/internal/partitioner"
)

// directedTestGraph is shared by the directed-algorithm oracles.
func directedTestGraph() *graph.Graph {
	return gen.PowerLaw(gen.PowerLawConfig{N: 800, AvgDeg: 6, Exponent: 2.1, Directed: true, Seed: 55})
}

func undirectedTestGraph() *graph.Graph {
	return gen.PowerLaw(gen.PowerLawConfig{N: 600, AvgDeg: 5, Exponent: 2.2, Directed: false, Seed: 56})
}

// partitionsUnderTest builds one partition per family, plus the
// degenerate single-fragment case, to exercise every status
// combination (e-cut, v-cut, dummy).
func partitionsUnderTest(t testing.TB, g *graph.Graph) map[string]*partition.Partition {
	t.Helper()
	out := map[string]*partition.Partition{}
	for _, spec := range partitioner.Baselines() {
		p, err := spec.Run(g, 4)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		out[spec.Name] = p
	}
	single, err := partitioner.HashEdgeCut(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	out["single"] = single
	return out
}

func TestPRMatchesSequential(t *testing.T) {
	g := directedTestGraph()
	want := PRSeq(g, 10, 0.85)
	for name, p := range partitionsUnderTest(t, g) {
		c := engine.NewCluster(p)
		got, rep, err := RunPR(c, PROptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.CriticalWork <= 0 {
			t.Errorf("%s: no work recorded", name)
		}
		for v := range want {
			if math.Abs(got[v]-want[v]) > 1e-9*(1+want[v]) {
				t.Fatalf("%s: rank[%d] = %v, want %v", name, v, got[v], want[v])
			}
		}
	}
}

func TestPRDanglingMassConserved(t *testing.T) {
	// A graph with dangling vertices: ranks must sum to 1.
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 2) // 2, 4, 5 dangling
	g := b.MustBuild()
	p, err := partitioner.HashEdgeCut(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	rank, _, err := RunPR(engine.NewCluster(p), PROptions{Iterations: 15})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, r := range rank {
		sum += r
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("rank mass = %v, want 1", sum)
	}
	want := PRSeq(g, 15, 0.85)
	for v := range want {
		if math.Abs(rank[v]-want[v]) > 1e-12 {
			t.Fatalf("rank[%d] = %v, want %v", v, rank[v], want[v])
		}
	}
}

func TestWCCMatchesSequential(t *testing.T) {
	g := directedTestGraph()
	_, wantCount := WCCSeq(g)
	wantSum := labelChecksum(mustLabels(g))
	for name, p := range partitionsUnderTest(t, g) {
		res, _, err := RunWCC(engine.NewCluster(p))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Count != wantCount {
			t.Fatalf("%s: %d components, want %d", name, res.Count, wantCount)
		}
		if labelChecksum(res.Labels) != wantSum {
			t.Fatalf("%s: label checksum mismatch", name)
		}
	}
}

func mustLabels(g *graph.Graph) []graph.VertexID {
	labels, _ := WCCSeq(g)
	return labels
}

func TestSSSPMatchesSequential(t *testing.T) {
	g := directedTestGraph()
	src := graph.VertexID(0)
	want := SSSPSeq(g, src)
	for name, p := range partitionsUnderTest(t, g) {
		res, _, err := RunSSSP(engine.NewCluster(p), src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for v := range want {
			got := res.Dist[v]
			if want[v] >= 1e300 {
				if got < Unreachable {
					t.Fatalf("%s: vertex %d should be unreachable, got %v", name, v, got)
				}
				continue
			}
			if math.Abs(got-want[v]) > 1e-9 {
				t.Fatalf("%s: dist[%d] = %v, want %v", name, v, got, want[v])
			}
		}
	}
}

func TestSSSPHighDiameter(t *testing.T) {
	g := gen.Grid2D(20, 20)
	src := graph.VertexID(0)
	want := SSSPSeq(g, src)
	p, err := partitioner.GridVertexCut(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, rep, err := RunSSSP(engine.NewCluster(p), src)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Supersteps < 3 {
		t.Errorf("high-diameter SSSP converged suspiciously fast: %d supersteps", rep.Supersteps)
	}
	for v := range want {
		if math.Abs(res.Dist[v]-want[v]) > 1e-9 {
			t.Fatalf("dist[%d] = %v, want %v", v, res.Dist[v], want[v])
		}
	}
}

func TestTCMatchesSequential(t *testing.T) {
	g := undirectedTestGraph()
	want := TCSeq(g)
	if want == 0 {
		t.Fatal("test graph has no triangles; pick a denser generator")
	}
	for name, p := range partitionsUnderTest(t, g) {
		got, rep, err := RunTC(engine.NewCluster(p))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != want {
			t.Fatalf("%s: %d triangles, want %d", name, got, want)
		}
		if rep.Supersteps != 4 {
			t.Errorf("%s: TC took %d supersteps, want 4", name, rep.Supersteps)
		}
	}
}

func TestTCCliques(t *testing.T) {
	// K5 + K4 + K3: C(5,3)+C(4,3)+C(3,3) = 10+4+1 triangles.
	g := cliques(5, 4, 3)
	if got := TCSeq(g); got != 15 {
		t.Fatalf("TCSeq = %d, want 15", got)
	}
	p, err := partitioner.NEVertexCut(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := RunTC(engine.NewCluster(p))
	if err != nil {
		t.Fatal(err)
	}
	if got != 15 {
		t.Fatalf("RunTC = %d, want 15", got)
	}
}

func TestTCRejectsDirected(t *testing.T) {
	g := directedTestGraph()
	p, err := partitioner.HashEdgeCut(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunTC(engine.NewCluster(p)); err == nil {
		t.Fatal("TC must reject directed graphs")
	}
}

func TestCNMatchesSequential(t *testing.T) {
	g := directedTestGraph()
	for _, theta := range []int{0, 30} {
		want := CNSeq(g, theta)
		if want.Triples == 0 {
			t.Fatalf("theta=%d: oracle found no triples", theta)
		}
		for name, p := range partitionsUnderTest(t, g) {
			got, _, err := RunCN(engine.NewCluster(p), CNOptions{Theta: theta})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got != want {
				t.Fatalf("%s theta=%d: %+v, want %+v", name, theta, got, want)
			}
		}
	}
}

func TestCNThetaFilters(t *testing.T) {
	g := directedTestGraph()
	all := CNSeq(g, 0)
	filtered := CNSeq(g, 5)
	if filtered.Triples >= all.Triples {
		t.Fatalf("theta filter did not reduce triples: %d vs %d", filtered.Triples, all.Triples)
	}
}

func TestRunDispatcherAgainstOracle(t *testing.T) {
	gd := directedTestGraph()
	gu := undirectedTestGraph()
	pd, err := partitioner.FennelEdgeCut(gd, 3, partitioner.FennelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	pu, err := partitioner.GridVertexCut(gu, 3)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{CNTheta: 50, SSSPSource: 1}
	for _, algo := range costmodel.Algos() {
		g, p := gd, pd
		if algo == costmodel.TC {
			g, p = gu, pu
		}
		got, err := Run(engine.NewCluster(p), algo, opts)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		want := SeqOutcome(g, algo, opts)
		if got.Checksum != want.Checksum {
			t.Errorf("%v: checksum %d vs oracle %d", algo, got.Checksum, want.Checksum)
		}
		if math.Abs(got.Value-want.Value) > 1e-6*(1+math.Abs(want.Value)) {
			t.Errorf("%v: value %v vs oracle %v", algo, got.Value, want.Value)
		}
		if got.Report == nil || got.Report.CriticalWork <= 0 {
			t.Errorf("%v: missing report", algo)
		}
	}
}

func TestRunUnknownAlgo(t *testing.T) {
	g := directedTestGraph()
	p, _ := partitioner.HashEdgeCut(g, 2)
	if _, err := Run(engine.NewCluster(p), costmodel.Algo(42), Options{}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// Workload skew must show up in the engine's critical path: CN on a
// balanced-by-count but hub-concentrated edge-cut must cost more than
// on a spread-out one. This is the Example-1 effect end to end.
func TestCNWorkloadSkewVisible(t *testing.T) {
	g := directedTestGraph()
	// Concentrated: vertices sorted by id; hubs (low ids in our
	// power-law generator) land together in fragment 0.
	nv := g.NumVertices()
	concentrated := make([]int, nv)
	for v := 0; v < nv; v++ {
		concentrated[v] = v * 4 / nv
	}
	spread := make([]int, nv)
	for v := 0; v < nv; v++ {
		spread[v] = v % 4
	}
	pc, err := partition.FromVertexAssignment(g, concentrated, 4)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := partition.FromVertexAssignment(g, spread, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, repC, err := RunCN(engine.NewCluster(pc), CNOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, repS, err := RunCN(engine.NewCluster(ps), CNOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if repC.CriticalWork <= repS.CriticalWork {
		t.Fatalf("hub-concentrated partition should cost more: %v vs %v",
			repC.CriticalWork, repS.CriticalWork)
	}
}

func TestHarvestProducesTrainableSamples(t *testing.T) {
	g := directedTestGraph()
	p, err := partitioner.HashEdgeCut(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	c := engine.NewCluster(p)
	c.EnableCostRecording()
	if _, _, err := RunPR(c, PROptions{Iterations: 3}); err != nil {
		t.Fatal(err)
	}
	comp, _ := c.HarvestSamples()
	if len(comp) < 100 {
		t.Fatalf("only %d computation samples harvested", len(comp))
	}
	vars, degree := costmodel.LearnableVars(costmodel.PR)
	m, err := costmodel.Train(costmodel.PolyTerms(vars, degree), comp, costmodel.TrainConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if msre := costmodel.MSRE(m, comp); msre > 0.2 {
		t.Fatalf("model trained on engine logs has MSRE %v", msre)
	}
}

func TestEdgeWeightDeterministicPositive(t *testing.T) {
	for u := graph.VertexID(0); u < 20; u++ {
		for v := graph.VertexID(0); v < 20; v++ {
			w1, w2 := EdgeWeight(u, v), EdgeWeight(u, v)
			if w1 != w2 || w1 < 1 {
				t.Fatalf("EdgeWeight(%d,%d) = %v/%v", u, v, w1, w2)
			}
		}
	}
}

func TestIntersectSorted(t *testing.T) {
	a := []graph.VertexID{1, 3, 5, 7, 9}
	b := []graph.VertexID{3, 4, 5, 9, 11}
	if got := intersectSorted(a, b); got != 3 { // {3, 5, 9}
		t.Fatalf("intersectSorted = %d, want 3", got)
	}
	if got := intersectSorted(a[2:], b); got != 2 { // {5, 9}
		t.Fatalf("intersectSorted of a suffix = %d, want 2", got)
	}
	if got := intersectSorted(nil, b); got != 0 {
		t.Fatalf("intersectSorted nil = %d", got)
	}
}

// Isolated vertices are their own components and unreachable in SSSP,
// even when the partitioners scatter them.
func TestIsolatedVerticesAcrossAlgorithms(t *testing.T) {
	b := graph.NewBuilder(8)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	// Vertices 3..7 isolated.
	g := b.MustBuild()
	p, err := partitioner.HashEdgeCut(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := RunWCC(engine.NewCluster(p))
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 6 {
		t.Fatalf("components = %d, want 6", res.Count)
	}
	sssp, _, err := RunSSSP(engine.NewCluster(p), 0)
	if err != nil {
		t.Fatal(err)
	}
	if sssp.Dist[7] < Unreachable {
		t.Fatal("isolated vertex reachable")
	}
	if sssp.Dist[2] >= Unreachable {
		t.Fatal("connected vertex unreachable")
	}
	rank, _, err := RunPR(engine.NewCluster(p), PROptions{Iterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, r := range rank {
		sum += r
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("rank mass %v with isolated vertices", sum)
	}
}

// TestRunnerAttachesPartialReport: when a run fails (here: a context
// cancelled before the run starts), the dispatcher must still hand back
// the engine's partial Report instead of discarding it.
func TestRunnerAttachesPartialReport(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 200, AvgDeg: 5, Exponent: 2.2, Directed: true, Seed: 7})
	p, err := partitioner.HashEdgeCut(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := engine.NewCluster(p).Configure(engine.Options{Context: ctx})
	out, err := Run(c, costmodel.PR, Options{PRIterations: 10})
	var fre *engine.FailedRunError
	if !errors.As(err, &fre) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want *engine.FailedRunError wrapping context.Canceled", err)
	}
	if out.Report == nil || out.Report.Supersteps != 0 {
		t.Fatalf("partial report missing or wrong: %+v", out.Report)
	}
	if out.Report != fre.Report {
		t.Fatal("outcome report is not the error's partial report")
	}
}
