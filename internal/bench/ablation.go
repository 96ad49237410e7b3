package bench

import (
	"fmt"

	"adp/internal/composite"
	"adp/internal/costmodel"
	"adp/internal/refine"
)

// Ablations measures the design choices DESIGN.md calls out:
//
//  1. BFS-coherent GetCandidates vs arbitrary candidate order —
//     locality (fe) and cost of the refined partition;
//  2. cost-aware MAssign vs keeping initial masters — parallel cost;
//  3. GetDest greedy set cover vs independent destinations — fc;
//  4. VMerge on/off — v-cut count and parallel cost for TC.
func Ablations() (*Table, error) {
	const n = 4
	t := &Table{
		ID:     "ablation",
		Title:  "Design-choice ablations (Twitter*, n=4)",
		Header: []string{"ablation", "with", "without", "metric"},
	}
	cn := costmodel.Reference(costmodel.CN)

	// (1) GetCandidates BFS order.
	base, err := basePartition(DSTwitter, "Fennel", n)
	if err != nil {
		return nil, err
	}
	bfsP, arbP := base.Clone(), base.Clone()
	refine.E2H(bfsP, cn, refine.Config{})
	refine.E2H(arbP, cn, refine.Config{ArbitraryCandidates: true})
	t.addRow(
		[]string{"GetCandidates BFS", fmtF(bfsP.ComputeMetrics().FE), fmtF(arbP.ComputeMetrics().FE), "fe (locality)"},
		[]float64{0, bfsP.ComputeMetrics().FE, arbP.ComputeMetrics().FE, 0},
	)

	// (2) MAssign on/off.
	withM, noM := base.Clone(), base.Clone()
	refine.E2H(withM, cn, refine.Config{Phases: 3})
	refine.E2H(noM, cn, refine.Config{Phases: 2})
	cw := costmodel.ParallelCost(costmodel.Evaluate(withM, cn))
	cn2 := costmodel.ParallelCost(costmodel.Evaluate(noM, cn))
	t.addRow(
		[]string{"MAssign", fmtF(cw), fmtF(cn2), "parallel cost"},
		[]float64{0, cw, cn2, 0},
	)

	// (3) GetDest greedy cover vs naive destinations.
	greedy, _, err := composite.ME2H(base, costmodel.ReferenceModels(), composite.Options{})
	if err != nil {
		return nil, err
	}
	naive, _, err := composite.ME2H(base, costmodel.ReferenceModels(), composite.Options{NaiveDest: true})
	if err != nil {
		return nil, err
	}
	t.addRow(
		[]string{"GetDest set cover", fmt.Sprintf("%.2f", greedy.FC()), fmt.Sprintf("%.2f", naive.FC()), "fc (composite replication)"},
		[]float64{0, greedy.FC(), naive.FC(), 0},
	)

	// (4) VMerge on/off for TC on a vertex-cut.
	tc := costmodel.Reference(costmodel.TC)
	vcBase, err := basePartition(algoDataset(DSTwitter, costmodel.TC), "Grid", n)
	if err != nil {
		return nil, err
	}
	withMerge, noMerge := vcBase.Clone(), vcBase.Clone()
	refine.V2H(withMerge, tc, refine.Config{Phases: 3})
	refine.V2H(noMerge, tc, refine.Config{Phases: 1})
	cwm := costmodel.ParallelCost(costmodel.Evaluate(withMerge, tc))
	cnm := costmodel.ParallelCost(costmodel.Evaluate(noMerge, tc))
	t.addRow(
		[]string{"VMerge (TC)", fmtF(cwm), fmtF(cnm), "parallel cost"},
		[]float64{0, cwm, cnm, 0},
	)

	// (5) Superstep batch size b of Section 5.3: a tiny batch forces
	// many BSP rounds; the quality of the result should be insensitive
	// to it (only the round count changes).
	small, large := base.Clone(), base.Clone()
	refine.ParE2H(small, cn, refine.Config{BatchSize: 4})
	refine.ParE2H(large, cn, refine.Config{BatchSize: 512})
	cs := costmodel.ParallelCost(costmodel.Evaluate(small, cn))
	cl := costmodel.ParallelCost(costmodel.Evaluate(large, cn))
	t.addRow(
		[]string{"batch size b=4 vs 512", fmtF(cs), fmtF(cl), "parallel cost"},
		[]float64{0, cs, cl, 0},
	)
	return t, nil
}
