// Mixed workload: build ONE composite partition serving all five
// algorithms (CN, TC, WCC, PR, SSSP) at once — the Section-6 scenario
// where PageRank, common neighbours and triangle counting must run on
// the same graph at the same time.
//
//	go run ./examples/mixedworkload             # pool sized to the machine
//	go run ./examples/mixedworkload -workers 1  # deterministic single-threaded
//
// The printed numbers are identical for every -workers value: the
// shared worker pool guarantees schedule-independent engine reports.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"adp/internal/algorithms"
	"adp/internal/composite"
	"adp/internal/costmodel"
	"adp/internal/engine"
	"adp/internal/gen"
	"adp/internal/graph"
	"adp/internal/partitioner"
	"adp/internal/pool"
)

func main() {
	workers := flag.Int("workers", 0, "worker-pool size for refinement and the BSP engine (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "abort the batch after this duration (0 = no timeout)")
	flag.Parse()
	if *workers != 0 {
		pool.SetDefaultWorkers(*workers)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// TC needs an undirected view; the whole batch shares it, exactly
	// as the paper runs its batch on one graph.
	g := graph.Symmetrize(gen.SocialSmall())
	fmt.Println("graph:", g)

	base, err := partitioner.FennelEdgeCut(g, 4, partitioner.FennelConfig{})
	if err != nil {
		log.Fatal(err)
	}

	comp, stats, err := composite.ME2H(base, costmodel.ReferenceModels(), composite.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("composite built in %v: %d vertices shared by all five partitions (Init)\n",
		stats.Total.Round(1e6), stats.InitShared)
	fmt.Printf("storage: composite %d arcs vs separate %d arcs (%.0f%% saved), fc = %.2f\n",
		comp.StorageArcs(), comp.SeparateStorageArcs(),
		(1-float64(comp.StorageArcs())/float64(comp.SeparateStorageArcs()))*100, comp.FC())

	// Run every algorithm over its own bundled partition.
	opts := algorithms.Options{SSSPSource: 1, PRIterations: 5}
	for _, a := range costmodel.Algos() {
		c := engine.NewCluster(comp.Partition(comp.PartitionFor(a))).
			Configure(engine.Options{Context: ctx})
		out, err := algorithms.Run(c, a, opts)
		if err != nil {
			log.Fatal(err)
		}
		want := algorithms.SeqOutcome(g, a, opts)
		fmt.Printf("  %-4v simulated cost %10.4g  result matches single-machine oracle: %v\n",
			a, out.Report.SimCost(engine.DefaultBytesWeight), out.Checksum == want.Checksum)
	}
}
