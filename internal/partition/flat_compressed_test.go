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

// TestCompileCompressedEquivalence is the acceptance criterion for the
// delta-varint compressed form: across randomized partition shapes
// (including refined hybrids), a partition squeezed down to compressed
// fragments answers every accessor bitwise identically to the mutable
// original — the compressed form inflates to the exact compiled
// layout.
func TestCompileCompressedEquivalence(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		for mode := 0; mode < 3; mode++ {
			p := buildShape(t, seed, mode)
			packed := p.Clone().Compile()
			q := p.Clone().CompileCompressed()
			for i := 0; i < p.NumFragments(); i++ {
				sameFragment(t, p, q, i) // inflates q's fragment
				if d := partition.SnapshotBase(q.Fragment(i)).Diff(partition.SnapshotBase(packed.Fragment(i))); d != "" {
					t.Fatalf("seed=%d mode=%d frag %d: inflated base differs from the packed one in %s", seed, mode, i, d)
				}
			}
			// HasArc parity both directions on every graph arc.
			p.Graph().Edges(func(u, v graph.VertexID) bool {
				for i := 0; i < p.NumFragments(); i++ {
					if p.Fragment(i).HasArc(u, v) != q.Fragment(i).HasArc(u, v) ||
						p.Fragment(i).HasArc(v, u) != q.Fragment(i).HasArc(v, u) {
						t.Fatalf("seed=%d mode=%d frag %d: HasArc diverges at (%d,%d)", seed, mode, i, u, v)
					}
				}
				return true
			})
			if err := p.EqualPlacement(q); err != nil {
				t.Fatalf("seed=%d mode=%d: %v", seed, mode, err)
			}
		}
	}
}

// TestCompressedThaw verifies a compressed partition stays fully
// mutable: a mutation inflates the fragment and thaws the vertices it
// touches transparently, and the result still validates and matches a
// never-compressed twin.
func TestCompressedThaw(t *testing.T) {
	p := buildShape(t, 3, 0)
	q := p.Clone().CompileCompressed()
	var moved []graph.Edge
	p.Graph().Edges(func(u, v graph.VertexID) bool {
		if len(moved) < 20 {
			moved = append(moved, graph.Edge{Src: u, Dst: v})
		}
		return len(moved) < 20
	})
	for _, e := range moved {
		for _, pp := range []*partition.Partition{p, q} {
			pp.RemoveArc(0, e.Src, e.Dst)
			pp.AddArc(1, e.Src, e.Dst)
		}
	}
	if err := p.EqualPlacement(q); err != nil {
		t.Fatalf("thawed compressed partition diverged: %v", err)
	}
	if err := q.Validate(); err != nil {
		t.Fatalf("thawed compressed partition invalid: %v", err)
	}
}

// TestFootprintBytes sanity-checks the packed/compressed byte
// accounting the bench series reports: both positive, and on a
// power-law graph the gap-compressed adjacency is strictly smaller
// than the fixed-width packed form.
func TestFootprintBytes(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 3000, AvgDeg: 8, Exponent: 2.1, Directed: true, Seed: 9})
	assign := make([]int, g.NumVertices())
	for i := range assign {
		assign[i] = i % 4
	}
	p, err := partition.FromVertexAssignmentFlat(g, assign, 4)
	if err != nil {
		t.Fatal(err)
	}
	packed, compressed := p.FootprintBytes()
	if packed <= 0 || compressed <= 0 {
		t.Fatalf("non-positive footprints: packed=%d compressed=%d", packed, compressed)
	}
	if compressed >= packed {
		t.Fatalf("compressed form (%d bytes) not smaller than packed (%d bytes)", compressed, packed)
	}
}
