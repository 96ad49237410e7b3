package adp_test

import (
	"os"
	"sync"
	"testing"

	"adp/internal/algorithms"
	"adp/internal/bench"
	"adp/internal/costmodel"
	"adp/internal/engine"
	"adp/internal/gen"
	"adp/internal/partition"
	"adp/internal/partitioner"
	"adp/internal/pool"
	"adp/internal/refine"
)

// Each benchmark regenerates one table or figure of the paper's
// Section 7 (see DESIGN.md for the experiment index). The rendered
// table is printed once per process so `go test -bench=.` doubles as
// the reproduction report; the timed quantity is the full experiment
// run (partitioning, refinement and simulated execution included).

var printOnce sync.Map

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	for i := 0; i < b.N; i++ {
		tbl, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		if _, done := printOnce.LoadOrStore(id, true); !done {
			tbl.Fprint(os.Stdout)
		}
	}
}

// Table 3: partition metrics (fv, fe, λe, λv, λCN).
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }

// Fig 9(a)-(j): execution cost of the five algorithms, Exp-1.
func BenchmarkFig9CNLiveJournal(b *testing.B) { benchExperiment(b, "fig9a") }
func BenchmarkFig9CNTwitter(b *testing.B)     { benchExperiment(b, "fig9b") }
func BenchmarkFig9TCLiveJournal(b *testing.B) { benchExperiment(b, "fig9c") }
func BenchmarkFig9TCTwitter(b *testing.B)     { benchExperiment(b, "fig9d") }
func BenchmarkFig9WCCTwitter(b *testing.B)    { benchExperiment(b, "fig9e") }
func BenchmarkFig9WCCUKWeb(b *testing.B)      { benchExperiment(b, "fig9f") }
func BenchmarkFig9PRTwitter(b *testing.B)     { benchExperiment(b, "fig9g") }
func BenchmarkFig9PRUKWeb(b *testing.B)       { benchExperiment(b, "fig9h") }
func BenchmarkFig9SSSPTwitter(b *testing.B)   { benchExperiment(b, "fig9i") }
func BenchmarkFig9SSSPTraffic(b *testing.B)   { benchExperiment(b, "fig9j") }

// Fig 9(k): refinement share of partitioning time, Exp-3.
func BenchmarkFig9K(b *testing.B) { benchExperiment(b, "fig9k") }

// Fig 9(l): scalability with |G|, Exp-5.
func BenchmarkFig9L(b *testing.B) { benchExperiment(b, "fig9l") }

// Table 4 / Fig 10(a): composite partition effectiveness, Exp-2.
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }

// Fig 10(b): composite partitioning time, Exp-4.
func BenchmarkFig10B(b *testing.B) { benchExperiment(b, "fig10b") }

// Exp-4 space: composite vs separate storage.
func BenchmarkCompositeSpace(b *testing.B) { benchExperiment(b, "space") }

// Table 5: cost-model learning accuracy and time, Exp-6.
func BenchmarkTable5(b *testing.B) { benchExperiment(b, "table5") }

// Fig 11 (appendix): phase decomposition of the refiners.
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }

// Exp-6 remark: monolithic single-machine runtime vs partitioned
// execution (the Gunrock comparison).
func BenchmarkSeqCompare(b *testing.B) { benchExperiment(b, "seqcmp") }

// DESIGN.md ablations: GetCandidates BFS order, MAssign, GetDest set
// cover, VMerge, batch size.
func BenchmarkAblations(b *testing.B) { benchExperiment(b, "ablation") }

// Contribution (3): Ginger's manual degree threshold vs the learned
// cost model.
func BenchmarkGingerSweep(b *testing.B) { benchExperiment(b, "gingersweep") }

var migrateFixture struct {
	once sync.Once
	base *partition.Partition
	m    costmodel.CostModel
}

func migrateSetup(b *testing.B) (*partition.Partition, costmodel.CostModel) {
	b.Helper()
	migrateFixture.once.Do(func() {
		g := gen.PowerLaw(gen.PowerLawConfig{N: 4000, AvgDeg: 8, Exponent: 2.0, Directed: true, Seed: 17})
		assign := make([]int, g.NumVertices())
		// Concentrate the low-id hubs in fragment 0 so the refiner has
		// real migration pressure (the Example-1 pathology).
		for v := range assign {
			assign[v] = v * 4 / len(assign)
		}
		p, err := partition.FromVertexAssignment(g, assign, 4)
		if err != nil {
			panic(err)
		}
		migrateFixture.base = p
		migrateFixture.m = costmodel.Reference(costmodel.CN)
	})
	return migrateFixture.base, migrateFixture.m
}

// BenchmarkParallelMigrate guards the refiner hot path: the full
// ParE2H schedule (concurrent probe passes at every superstep) on the
// shared pool, allocs/op reported.
func BenchmarkParallelMigrate(b *testing.B) {
	base, m := migrateSetup(b)
	pl := pool.Default()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := base.Clone()
		refine.ParE2H(p, m, refine.Config{Pool: pl})
	}
}

// BenchmarkEngineRun guards the BSP engine: five PageRank supersteps
// over an 8-fragment cluster on the shared pool, allocs/op reported.
func BenchmarkEngineRun(b *testing.B) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 6000, AvgDeg: 8, Exponent: 2.1, Directed: true, Seed: 23})
	p, err := partitioner.FennelEdgeCut(g, 8, partitioner.FennelConfig{})
	if err != nil {
		b.Fatal(err)
	}
	opts := algorithms.Options{PRIterations: 5}
	pl := pool.Default()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := algorithms.Run(engine.NewCluster(p).UsePool(pl), costmodel.PR, opts); err != nil {
			b.Fatal(err)
		}
	}
}
