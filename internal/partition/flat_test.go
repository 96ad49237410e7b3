package partition_test

import (
	"math/rand"
	"strings"
	"testing"

	"adp/internal/gen"
	"adp/internal/graph"
	"adp/internal/partition"
)

// TestFromVertexAssignmentFlatMatchesMap pins the flat (frozen
// compiled-form) constructor to the map-based one: same placement,
// same masters and owners, same adjacency contents and walk order,
// across random assignments of directed and undirected graphs.
func TestFromVertexAssignmentFlatMatchesMap(t *testing.T) {
	for _, directed := range []bool{true, false} {
		for seed := int64(0); seed < 4; seed++ {
			g := gen.PowerLaw(gen.PowerLawConfig{N: 220, AvgDeg: 5, Exponent: 2.2, Directed: directed, Seed: seed})
			rng := rand.New(rand.NewSource(seed * 31))
			assign := make([]int, g.NumVertices())
			for i := range assign {
				assign[i] = rng.Intn(5)
			}
			pm, err := partition.FromVertexAssignment(g, assign, 5)
			if err != nil {
				t.Fatal(err)
			}
			pf, err := partition.FromVertexAssignmentFlat(g, assign, 5)
			if err != nil {
				t.Fatal(err)
			}
			if err := pm.EqualPlacement(pf); err != nil {
				t.Fatalf("directed=%v seed=%d: flat placement diverges: %v", directed, seed, err)
			}
			for v := 0; v < g.NumVertices(); v++ {
				vid := graph.VertexID(v)
				if pm.Master(vid) != pf.Master(vid) {
					t.Fatalf("vertex %d: master %d vs %d", v, pm.Master(vid), pf.Master(vid))
				}
				if pm.Owner(vid) != pf.Owner(vid) {
					t.Fatalf("vertex %d: owner %d vs %d", v, pm.Owner(vid), pf.Owner(vid))
				}
			}
			for i := 0; i < pm.NumFragments(); i++ {
				sameFragment(t, pm, pf, i)
			}
			// The directly-built arrays are the ones Compile packs.
			pm.Compile()
			for i := 0; i < pm.NumFragments(); i++ {
				if d := partition.SnapshotBase(pf.Fragment(i)).Diff(partition.SnapshotBase(pm.Fragment(i))); d != "" {
					t.Fatalf("directed=%v seed=%d frag %d: flat-built base differs from the compiled one in %s", directed, seed, i, d)
				}
			}
			if err := pf.Validate(); err != nil {
				t.Fatalf("flat partition invalid: %v", err)
			}
		}
	}
}

// TestFromVertexAssignmentFlatErrors pins the error messages to the
// map constructor's.
func TestFromVertexAssignmentFlatErrors(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 20, AvgDeg: 3, Exponent: 2.2, Directed: true, Seed: 1})
	if _, err := partition.FromVertexAssignmentFlat(g, make([]int, 3), 2); err == nil ||
		!strings.Contains(err.Error(), "covers 3 of") {
		t.Fatalf("short assignment not rejected: %v", err)
	}
	bad := make([]int, g.NumVertices())
	bad[7] = 9
	if _, err := partition.FromVertexAssignmentFlat(g, bad, 2); err == nil ||
		!strings.Contains(err.Error(), "vertex 7 assigned to fragment 9") {
		t.Fatalf("out-of-range assignment not rejected: %v", err)
	}
}
