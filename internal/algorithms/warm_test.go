package algorithms

import (
	"testing"

	"adp/internal/composite"
	"adp/internal/costmodel"
	"adp/internal/engine"
	"adp/internal/gen"
	"adp/internal/partitioner"
	"adp/internal/pool"
)

// TestWarmRunAllocs: a warm cluster's next Run of the same algorithm
// allocates only what it hands back and a fixed per-run overhead — the
// Report, the result vector, the step closures, one aggregate message
// per worker — however large the graph: state, inboxes, the sweep heap
// and the exchange arena are all reused. The bound is the same for a
// graph four times the size, which is what rules out per-vertex and
// per-message allocations.
func TestWarmRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const workers, bound = 4, 20
	opts := Options{CNTheta: 60, SSSPSource: 1, PRIterations: 5}
	for _, n := range []int{500, 2000} {
		g := gen.PowerLaw(gen.PowerLawConfig{N: n, AvgDeg: 6, Exponent: 2.1, Seed: 17})
		p, err := partitioner.GridVertexCut(g, workers)
		if err != nil {
			t.Fatal(err)
		}
		c := engine.NewCluster(p).UsePool(pool.Serial())
		for _, algo := range []costmodel.Algo{costmodel.PR, costmodel.WCC, costmodel.SSSP, costmodel.TC, costmodel.CN} {
			run := func() {
				if _, err := Run(c, algo, opts); err != nil {
					t.Fatal(err)
				}
			}
			run() // builds the plan, sizes every buffer
			if got := testing.AllocsPerRun(3, run); got > bound {
				t.Errorf("N=%d %v: warm run allocates %.0f times, want <= %d", n, algo, got, bound)
			}
		}
	}
}

// BenchmarkRunBatch is the serving plane's run batch without the
// daemon: the five algorithms, each on a warm cluster over its own
// partition of an ME2H composite.
func BenchmarkRunBatch(b *testing.B) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 6000, AvgDeg: 8, Exponent: 2.1, Seed: 3})
	base, err := partitioner.FennelEdgeCut(g, 8, partitioner.FennelConfig{})
	if err != nil {
		b.Fatal(err)
	}
	algos := costmodel.Algos()
	models := make([]costmodel.CostModel, len(algos))
	for j, a := range algos {
		models[j] = costmodel.Reference(a)
	}
	comp, _, err := composite.ME2H(base, models, composite.Options{})
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{PRIterations: 10, SSSPSource: 1}
	clusters := make([]*engine.Cluster, len(algos))
	batch := func() {
		for j, a := range algos {
			if _, err := Run(clusters[j], a, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	for j := range algos {
		clusters[j] = engine.NewCluster(comp.Partition(j))
	}
	batch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch()
	}
}
