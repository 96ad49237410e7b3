package refine

import (
	"math"
	"runtime"
	"testing"

	"adp/internal/costmodel"
	"adp/internal/gen"
	"adp/internal/partitioner"
	"adp/internal/pool"
)

// goldenStats pins the refiner Stats of twelve deterministic workloads
// — all five algorithms through both ParE2H and ParV2H, plus a
// learned-degree polynomial Model through each refiner — to the exact
// values the map-backed Tracker and interpreted Model.Eval produced
// before the refinement plane was flattened (dense slabs + compiled
// kernels). Budget is pinned by Float64bits, so any floating-point
// reordering in the tracker or kernels fails this test: the flattened
// plane must be bitwise-identical to the map-backed implementation,
// not merely close.
type goldenStat struct {
	label      string
	budgetBits uint64
	migrated   int
	splitEdges int
	merged     int
	masters    int
}

var goldenStats = []goldenStat{
	{"CN/e2h", 0x40157ecac543faac, 270, 648, 0, 929},
	{"CN/v2h", 0x40157f43a122ddd5, 215, 0, 53, 1003},
	{"TC/e2h", 0x40125f8789affaeb, 264, 15, 0, 8},
	{"TC/v2h", 0x40125f8789affade, 329, 0, 10, 746},
	{"WCC/e2h", 0x3f9a8c660db456f1, 253, 25, 0, 921},
	{"WCC/v2h", 0x3fa56dda5c65bfed, 405, 0, 8, 897},
	{"PR/e2h", 0x3fc50b0ceb11a308, 219, 7, 0, 850},
	{"PR/v2h", 0x3fd5e1239be67b2d, 306, 0, 7, 874},
	{"SSSP/e2h", 0x3fee0e7bc3c5bd14, 264, 8, 0, 975},
	{"SSSP/v2h", 0x3ff0422a58e0b370, 492, 0, 12, 851},
	{"learned/e2h", 0x4014ebfb50c699d3, 268, 656, 0, 866},
	{"learned/v2h", 0x4014ecc664ce04f0, 214, 0, 69, 1040},
}

// goldenLearnedModel is a cost pair of the shape costmodel.Train
// produces: a degree-2 hA over {d+L, d+G} with CN-like weights and a
// degree-1 gA over r with PR-like weights, both in learned Model form,
// so the compiled-kernel path runs rather than the reference closures.
func goldenLearnedModel() costmodel.CostModel {
	h := &costmodel.Model{
		Terms:   costmodel.PolyTerms([]costmodel.VarKind{costmodel.DLIn, costmodel.DGIn}, 2),
		Weights: []float64{1.02e-6, 3e-8, 1.04e-6, 2e-9, 9.23e-5, 5e-9},
	}
	g := &costmodel.Model{
		Terms:   costmodel.PolyTerms([]costmodel.VarKind{costmodel.Repl}, 1),
		Weights: []float64{1.1e-4, 6.6e-4},
	}
	return costmodel.CostModel{H: h, G: g}
}

// goldenWorkload rebuilds the deterministic workload behind a golden
// label and runs the matching refiner on the given pool.
func goldenWorkload(t *testing.T, label string, pl *pool.Pool) *Stats {
	t.Helper()
	var m costmodel.CostModel
	var seed int64
	directed := true
	switch label[:len(label)-4] {
	case "learned":
		m, seed = goldenLearnedModel(), 99
	default:
		var algo costmodel.Algo
		found := false
		for _, a := range costmodel.Algos() {
			if a.String() == label[:len(label)-4] {
				algo, found = a, true
				break
			}
		}
		if !found {
			t.Fatalf("unknown golden label %q", label)
		}
		m = costmodel.Reference(algo)
		seed = 77 + int64(algo)
		directed = algo != costmodel.TC
	}
	g := gen.PowerLaw(gen.PowerLawConfig{N: 1500, AvgDeg: 6, Exponent: 2.2, Directed: directed, Seed: seed})
	if label[len(label)-3:] == "e2h" {
		ec, err := partitioner.FennelEdgeCut(g, 6, partitioner.FennelConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return ParE2H(ec, m, Config{Pool: pl})
	}
	vc, err := partitioner.GridVertexCut(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	return ParV2H(vc, m, Config{Pool: pl})
}

// TestGoldenStatsMatchMapBackedImplementation is the acceptance lock:
// Stats (Budget, Migrated, SplitEdges, Merged, MastersMoved) must be
// bitwise-identical to the retired map-backed implementation for every
// algorithm, through both refiners, across {1, 4, NumCPU} pools.
func TestGoldenStatsMatchMapBackedImplementation(t *testing.T) {
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		pl := pool.New(workers)
		for _, gs := range goldenStats {
			gs := gs
			t.Run(gs.label, func(t *testing.T) {
				s := goldenWorkload(t, gs.label, pl)
				if got := math.Float64bits(s.Budget); got != gs.budgetBits {
					t.Errorf("workers=%d: Budget bits = %#016x (%v), map-backed implementation had %#016x (%v)",
						workers, got, s.Budget, gs.budgetBits, math.Float64frombits(gs.budgetBits))
				}
				if s.Migrated != gs.migrated || s.SplitEdges != gs.splitEdges || s.Merged != gs.merged || s.MastersMoved != gs.masters {
					t.Errorf("workers=%d: counters = {mig=%d split=%d merged=%d masters=%d}, map-backed implementation had {mig=%d split=%d merged=%d masters=%d}",
						workers, s.Migrated, s.SplitEdges, s.Merged, s.MastersMoved,
						gs.migrated, gs.splitEdges, gs.merged, gs.masters)
				}
			})
		}
		pl.Close()
	}
}
