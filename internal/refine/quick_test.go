package refine

import (
	"math/rand"
	"testing"
	"testing/quick"

	"adp/internal/costmodel"
	"adp/internal/gen"
	"adp/internal/partition"
	"adp/internal/partitioner"
)

// Property: E2H on ANY random edge-cut of ANY random graph, for ANY of
// the five cost models, always yields a valid partition and never
// increases the modelled parallel cost by more than the probe
// tolerance.
func TestQuickE2HAlwaysValid(t *testing.T) {
	f := func(seed int64, algoRaw uint8, nRaw uint8) bool {
		n := int(nRaw)%3 + 2
		algo := costmodel.Algo(int(algoRaw) % 5)
		g := gen.PowerLaw(gen.PowerLawConfig{N: 250, AvgDeg: 5, Exponent: 2.1, Directed: algo != costmodel.TC, Seed: seed})
		rng := rand.New(rand.NewSource(seed + 1))
		assign := make([]int, g.NumVertices())
		for i := range assign {
			assign[i] = rng.Intn(n)
		}
		p, err := partition.FromVertexAssignment(g, assign, n)
		if err != nil {
			return false
		}
		m := costmodel.Reference(algo)
		before := parallelCost(p, m)
		E2H(p, m, Config{})
		if p.Validate() != nil {
			return false
		}
		return parallelCost(p, m) <= before*1.10+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: V2H on ANY random vertex-cut keeps the partition valid and
// the cost bounded.
func TestQuickV2HAlwaysValid(t *testing.T) {
	f := func(seed int64, algoRaw uint8, nRaw uint8) bool {
		n := int(nRaw)%3 + 2
		algo := costmodel.Algo(int(algoRaw) % 5)
		g := gen.PowerLaw(gen.PowerLawConfig{N: 220, AvgDeg: 4, Exponent: 2.2, Directed: algo != costmodel.TC, Seed: seed})
		p, err := partitioner.GridVertexCut(g, n)
		if err != nil {
			return false
		}
		m := costmodel.Reference(algo)
		before := parallelCost(p, m)
		V2H(p, m, Config{})
		if p.Validate() != nil {
			return false
		}
		return parallelCost(p, m) <= before*1.10+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: refinement never loses or invents graph arcs — coverage is
// exactly E, checked by Validate plus the arc-count lower bound
// (storage ≥ |E|).
func TestQuickRefinementPreservesCoverage(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.ErdosRenyi(200, 4, true, seed)
		p, err := partitioner.FennelEdgeCut(g, 3, partitioner.FennelConfig{})
		if err != nil {
			return false
		}
		E2H(p, costmodel.Reference(costmodel.CN), Config{})
		if p.Validate() != nil {
			return false
		}
		return int64(p.StorageArcs()) >= g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
