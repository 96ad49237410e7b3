package engine_test

import (
	"testing"

	"adp/internal/algorithms"
	"adp/internal/composite"
	"adp/internal/costmodel"
	"adp/internal/engine"
	"adp/internal/gen"
	"adp/internal/partition"
	"adp/internal/partitioner"
)

// The run batch: the five algorithms, each on its own partition of a
// composite of the five reference models over a 6,000-vertex power-law
// graph — serve_read's batch (ME2H over Fennel) and, cold, the
// application phase of composite_build (ME2H and MV2H over Grid).
var batchOpts = algorithms.Options{PRIterations: 10, SSSPSource: 1}

// batchComposite builds the run batch's ME2H composite over a Fennel
// base, or with vertexCut its MV2H composite over a Grid base.
func batchComposite(tb testing.TB, vertexCut bool) *composite.Composite {
	tb.Helper()
	g := gen.PowerLaw(gen.PowerLawConfig{N: 6000, AvgDeg: 8, Exponent: 2.1, Seed: 3})
	var p *partition.Partition
	var err error
	build := composite.ME2H
	if vertexCut {
		p, err = partitioner.GridVertexCut(g, 8)
		build = composite.MV2H
	} else {
		p, err = partitioner.FennelEdgeCut(g, 8, partitioner.FennelConfig{})
	}
	if err != nil {
		tb.Fatal(err)
	}
	comp, _, err := build(p, costmodel.ReferenceModels(), composite.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return comp
}

// runBatch runs every algorithm once, algorithm j on clusters[j].
func runBatch(tb testing.TB, clusters []*engine.Cluster) {
	for j, a := range costmodel.Algos() {
		if _, err := algorithms.Run(clusters[j], a, batchOpts); err != nil {
			tb.Fatal(err)
		}
	}
}

// batchClusters builds one cluster per algorithm over its partition of
// comp.
func batchClusters(comp *composite.Composite) []*engine.Cluster {
	clusters := make([]*engine.Cluster, len(costmodel.Algos()))
	for j := range clusters {
		clusters[j] = engine.NewCluster(comp.Partition(j))
	}
	return clusters
}

// BenchmarkRunBatch is the serving plane's run batch without the
// daemon, on warm clusters.
func BenchmarkRunBatch(b *testing.B) {
	clusters := batchClusters(batchComposite(b, false))
	runBatch(b, clusters)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runBatch(b, clusters)
	}
}

// BenchmarkRunBatchCold is composite_build's application phase: every
// algorithm on a new cluster over its partition of the ME2H and of the
// MV2H composite, so each op pays for the clusters' buffers afresh.
func BenchmarkRunBatchCold(b *testing.B) {
	comps := []*composite.Composite{batchComposite(b, false), batchComposite(b, true)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, comp := range comps {
			runBatch(b, batchClusters(comp))
		}
	}
}

// TestWarmMessageFootprint pins, as a count, the message buffers that
// BenchmarkRunBatch's five warm clusters keep between runs: the
// capacity bytes of both lanes of every inbox and outbox after two runs
// each. With every scalar message a 56-byte Message plus an 8-byte
// payload slot in a double-buffered arena, the same figure was
// 17.46 MB (17,459,200 bytes); the 16-byte scalar lane brings it under
// 8 MB.
func TestWarmMessageFootprint(t *testing.T) {
	clusters := batchClusters(batchComposite(t, false))
	runBatch(t, clusters)
	runBatch(t, clusters)
	var total int64
	for _, c := range clusters {
		total += engine.MessageBufferBytes(c)
	}
	t.Logf("warm message buffers: %d bytes", total)
	const bound = 8_000_000
	if total > bound {
		t.Fatalf("five warm clusters keep %d bytes of message buffers, want <= %d", total, bound)
	}
}
