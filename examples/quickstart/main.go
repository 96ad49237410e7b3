// Quickstart: partition a graph for PageRank the application-driven
// way and watch the parallel cost drop.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"adp/internal/algorithms"
	"adp/internal/costmodel"
	"adp/internal/engine"
	"adp/internal/gen"
	"adp/internal/partitioner"
	"adp/internal/refine"
)

func main() {
	// 1. A skewed social graph (the liveJournal stand-in).
	g := gen.SocialSmall()
	fmt.Println("graph:", g)

	// 2. A conventional edge-cut: balanced by vertex count, oblivious
	//    to what will run on it.
	base, err := partitioner.FennelEdgeCut(g, 4, partitioner.FennelConfig{})
	if err != nil {
		log.Fatal(err)
	}

	// 3. The cost model of the target algorithm (Table 5's hPR/gPR;
	//    see examples/costlearning for learning one from running logs).
	model := costmodel.Reference(costmodel.PR)
	before := costmodel.Evaluate(base, model)

	// 4. Refine the edge-cut into a PR-driven hybrid partition.
	refined := base.CloneCOW()
	stats := refine.ParE2H(refined, model, refine.Config{})
	after := costmodel.Evaluate(refined, model)

	fmt.Printf("budget B = %.4g; %d vertices migrated, %d edges split, %d masters moved\n",
		stats.Budget, stats.Migrated, stats.SplitEdges, stats.MastersMoved)
	fmt.Printf("modelled parallel cost: %.4g -> %.4g\n",
		costmodel.ParallelCost(before), costmodel.ParallelCost(after))

	// 5. Run PageRank over both partitions on the BSP engine and
	//    compare the simulated parallel runtime; results are identical.
	baseOut, err := algorithms.Run(engine.NewCluster(base), costmodel.PR, algorithms.Options{})
	if err != nil {
		log.Fatal(err)
	}
	refOut, err := algorithms.Run(engine.NewCluster(refined), costmodel.PR, algorithms.Options{})
	if err != nil {
		log.Fatal(err)
	}
	diff := baseOut.Value - refOut.Value
	if diff < 0 {
		diff = -diff
	}
	fmt.Printf("engine simulated cost:  %.4g -> %.4g (identical ranks: %v)\n",
		baseOut.Report.SimCost(engine.DefaultBytesWeight),
		refOut.Report.SimCost(engine.DefaultBytesWeight),
		diff < 1e-9*(1+baseOut.Value))
}
