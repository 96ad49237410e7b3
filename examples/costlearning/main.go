// Cost learning: harvest a running log from the BSP engine and learn
// hCN/gCN by SGD — the Section-4 pipeline end to end. The learned
// polynomial is then used to drive a refinement, closing the loop.
//
//	go run ./examples/costlearning
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
	// 1. Collect [X(v), t(v)] samples by running CN over several
	//    graphs with per-vertex cost recording on (the "running log").
	var comp, comm []costmodel.Sample
	for i, g := range gen.TrainingGraphs()[:6] {
		// Alternate edge-cut and vertex-cut partitions: the paper
		// imposes no restriction on how training graphs are cut.
		var cluster *engine.Cluster
		if i%2 == 0 {
			ec, err := partitioner.HashEdgeCut(g, 3)
			if err != nil {
				log.Fatal(err)
			}
			cluster = engine.NewCluster(ec)
		} else {
			vc, err := partitioner.GridVertexCut(g, 3)
			if err != nil {
				log.Fatal(err)
			}
			cluster = engine.NewCluster(vc)
		}
		cluster.EnableCostRecording()
		if _, _, err := algorithms.RunCN(cluster, algorithms.CNOptions{}); err != nil {
			log.Fatal(err)
		}
		hc, hm := cluster.HarvestSamples()
		comp = append(comp, hc...)
		comm = append(comm, hm...)
	}
	fmt.Printf("harvested %d computation and %d communication samples\n", len(comp), len(comm))

	// 2. Train hCN with the paper's 80/20 split.
	train, test := costmodel.Split(comp, 0.8, 1)
	vars, degree := costmodel.LearnableVars(costmodel.CN)
	h, err := costmodel.Train(costmodel.PolyTerms(vars, degree), train, costmodel.TrainConfig{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("learned hCN = %s\n", h)
	fmt.Printf("test MSRE   = %.4f (paper's bar: ≤ 0.11)\n", costmodel.MSRE(h, test))

	// 3. Drive a refinement with the LEARNED model (not the reference)
	//    and verify it balances the CN workload.
	g := gen.SocialSmall()
	base, err := partitioner.FennelEdgeCut(g, 4, partitioner.FennelConfig{})
	if err != nil {
		log.Fatal(err)
	}
	model := costmodel.CostModel{H: h, G: costmodel.Reference(costmodel.CN).G}
	before := costmodel.Evaluate(base, model)
	refined := base.CloneCOW()
	refine.ParE2H(refined, model, refine.Config{})
	after := costmodel.Evaluate(refined, model)
	fmt.Printf("refinement driven by the learned model: parallel cost %.4g -> %.4g (λ %.2f -> %.2f)\n",
		costmodel.ParallelCost(before), costmodel.ParallelCost(after),
		costmodel.LambdaCost(before), costmodel.LambdaCost(after))
}
