package partition_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"adp/internal/gen"
	"adp/internal/graph"
	"adp/internal/partition"
	"adp/internal/partitioner"
	"adp/internal/pool"
)

// skewedGraph is a random graph over 120 vertices whose last 20 are
// isolated, with a few hubs among the low ids (the hybrid partitioners
// need some to split) and a few self loops.
func skewedGraph(directed bool, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewUndirectedBuilder(120)
	if directed {
		b = graph.NewBuilder(120)
	}
	b.KeepSelfLoops()
	for e := 0; e < 600; e++ {
		u, v := graph.VertexID(rng.Intn(100)), graph.VertexID(rng.Intn(rng.Intn(100)+1))
		if e%97 == 0 {
			v = u
		}
		b.AddEdge(u, v)
	}
	return b.MustBuild()
}

// mapBuilt is the reference the constructors are held to: NewEmpty, the
// calls add makes for each arc in g.Edges order, an edge-less copy of
// every vertex nothing touched at loner(v), then Compile.
func mapBuilt(g *graph.Graph, n int, add func(p *partition.Partition, s, d graph.VertexID), loner func(v graph.VertexID) int) *partition.Partition {
	p := partition.NewEmpty(g, n)
	g.Edges(func(s, d graph.VertexID) bool {
		add(p, s, d)
		return true
	})
	for v := 0; v < g.NumVertices(); v++ {
		if vid := graph.VertexID(v); len(p.Copies(vid)) == 0 {
			p.AddVertex(loner(vid), vid)
		}
	}
	return p.Compile()
}

// edgeAt is the add of an edge-assigned build: the edge, once, at the
// fragment at names.
func edgeAt(at func(s, d graph.VertexID) int) func(*partition.Partition, graph.VertexID, graph.VertexID) {
	return func(p *partition.Partition, s, d graph.VertexID) {
		if !p.Graph().Undirected() || s <= d {
			p.AddEdge(at(s, d), s, d)
		}
	}
}

// sameBuild fails unless got is, array for array and index for index,
// the compiled partition want.
func sameBuild(t *testing.T, what string, got, want *partition.Partition) {
	t.Helper()
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: invalid: %v", what, err)
	}
	for i := 0; i < want.NumFragments(); i++ {
		if !got.Fragment(i).Compiled() {
			t.Fatalf("%s: fragment %d is not compiled", what, i)
		}
		if d := partition.SnapshotBase(got.Fragment(i)).Diff(partition.SnapshotBase(want.Fragment(i))); d != "" {
			t.Fatalf("%s: fragment %d differs from the map-built base in %s", what, i, d)
		}
		if err := partition.CheckPacked(got.Fragment(i)); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	for v := 0; v < want.Graph().NumVertices(); v++ {
		vid := graph.VertexID(v)
		if !slices.Equal(got.Copies(vid), want.Copies(vid)) || got.Master(vid) != want.Master(vid) || got.Owner(vid) != want.Owner(vid) {
			t.Fatalf("%s: vertex %d: copies %v master %d owner %d, map build has %v / %d / %d", what, v,
				got.Copies(vid), got.Master(vid), got.Owner(vid), want.Copies(vid), want.Master(vid), want.Owner(vid))
		}
	}
}

// TestConstructorsMatchMapBuild holds every constructor that places
// edges in g.Edges order to the map build of the same calls, on directed
// and undirected graphs with isolated vertices, hubs and self loops, at
// 1, 4 and NumCPU workers of pool.Default(), which the constructors fan
// out on; a graph of several source blocks covers FromVertexAssignment's
// per-block offsets. (NEVertexCut, whose call order is its own, is held
// to the same reference in internal/partitioner.)
func TestConstructorsMatchMapBuild(t *testing.T) {
	t.Cleanup(func() { pool.SetDefaultWorkers(0) })
	big := gen.PowerLaw(gen.PowerLawConfig{N: 10_000, AvgDeg: 6, Exponent: 2.1, Directed: true, Seed: 3})
	bigAssign := make([]int, big.NumVertices())
	for v := range bigAssign {
		bigAssign[v] = (v*v + 7*v) % 8
	}
	bigWant := mapBuilt(big, 8, func(p *partition.Partition, s, d graph.VertexID) {
		p.AddArc(bigAssign[s], s, d)
		if bigAssign[d] != bigAssign[s] {
			p.AddArc(bigAssign[d], s, d)
		}
	}, func(v graph.VertexID) int { return bigAssign[v] })
	for v, i := range bigAssign {
		bigWant.SetOwner(graph.VertexID(v), i)
		if err := bigWant.SetMaster(graph.VertexID(v), i); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 4, runtime.NumCPU()} {
		pool.SetDefaultWorkers(workers)
		got, err := partition.FromVertexAssignment(big, bigAssign, 8)
		if err != nil {
			t.Fatal(err)
		}
		sameBuild(t, fmt.Sprintf("FromVertexAssignment over %d vertices, workers=%d", big.NumVertices(), workers), got, bigWant)
		constructorsMatchMapBuild(t, workers)
	}
}

// constructorsMatchMapBuild is the small-graph table, built on the
// current pool.Default().
func constructorsMatchMapBuild(t *testing.T, workers int) {
	for _, directed := range []bool{true, false} {
		for _, n := range []int{1, 3, 8} {
			for seed := int64(0); seed < 3; seed++ {
				g := skewedGraph(directed, seed)
				what := fmt.Sprintf("directed=%v n=%d seed=%d workers=%d", directed, n, seed, workers)
				rng := rand.New(rand.NewSource(seed*31 + int64(n)))
				roundRobin := func(v graph.VertexID) int { return int(v) % n }

				assign := make([]int, g.NumVertices())
				for i := range assign {
					assign[i] = rng.Intn(n)
				}
				got, err := partition.FromVertexAssignment(g, assign, n)
				if err != nil {
					t.Fatal(err)
				}
				want := mapBuilt(g, n, func(p *partition.Partition, s, d graph.VertexID) {
					p.AddArc(assign[s], s, d)
					if assign[d] != assign[s] {
						p.AddArc(assign[d], s, d)
					}
				}, func(v graph.VertexID) int { return assign[v] })
				for v, i := range assign {
					want.SetOwner(graph.VertexID(v), i)
					if err := want.SetMaster(graph.VertexID(v), i); err != nil {
						t.Fatal(err)
					}
				}
				sameBuild(t, "FromVertexAssignment "+what, got, want)

				// Endpoint-dependent, so that the first fragment to touch a
				// vertex is seldom the lowest one holding it.
				byEdge := func(s, d graph.VertexID) int { return int(s*7+d*13+graph.VertexID(seed)) % n }
				got, err = partition.FromEdgeAssignment(g, byEdge, n)
				if err != nil {
					t.Fatal(err)
				}
				sameBuild(t, "FromEdgeAssignment "+what, got, mapBuilt(g, n, edgeAt(byEdge), roundRobin))

				// The hybrids own every vertex at its home, so the result
				// names the homes; the thresholds are given, so the test
				// knows the hubs.
				const threshold = 9
				hybrid := func(name string, got *partition.Partition, err error, isHub func(graph.VertexID) bool) {
					t.Helper()
					if err != nil {
						t.Fatal(err)
					}
					home := func(v graph.VertexID) int { return got.Owner(v) }
					want := mapBuilt(g, n, edgeAt(func(s, d graph.VertexID) int {
						if isHub(d) {
							return home(s)
						}
						return home(d)
					}), home)
					for v := 0; v < g.NumVertices(); v++ {
						want.SetOwner(graph.VertexID(v), home(graph.VertexID(v)))
					}
					sameBuild(t, name+" "+what, got, want)
				}
				p, err := partitioner.GingerHybrid(g, n, partitioner.GingerConfig{DegreeThreshold: threshold})
				hybrid("GingerHybrid", p, err, func(v graph.VertexID) bool { return g.InDegree(v) > threshold })
				p, err = partitioner.TopoXHybrid(g, n, partitioner.TopoXConfig{DegreeThreshold: threshold})
				hybrid("TopoXHybrid", p, err, func(v graph.VertexID) bool { return g.InDegree(v)+g.OutDegree(v) > threshold })
			}
		}
	}
}

// TestConstructorAllocsIndependentOfArcs: a constructor allocates a
// fixed number of arrays per fragment, however many arcs they hold.
func TestConstructorAllocsIndependentOfArcs(t *testing.T) {
	allocs := func(nv, frags int) float64 {
		b := graph.NewBuilder(nv)
		for i := 0; i < nv; i++ {
			b.AddEdge(graph.VertexID(i), graph.VertexID((i+1)%nv))
			b.AddEdge(graph.VertexID(i), graph.VertexID((i+7)%nv))
		}
		g := b.MustBuild()
		assign := make([]int, nv)
		for v := range assign {
			assign[v] = v * frags / nv
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := partition.FromVertexAssignment(g, assign, frags); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large, wide := allocs(400, 4), allocs(4000, 4), allocs(4000, 8)
	if small != large {
		t.Fatalf("FromVertexAssignment into 4 fragments allocates %.0f objects for 800 arcs, %.0f for 8000", small, large)
	}
	if wide <= large {
		t.Fatalf("8 fragments allocate %.0f objects, 4 allocate %.0f: the count should follow the fragments", wide, large)
	}
}

// TestConstructorErrorStrings pins the constructors' error messages.
func TestConstructorErrorStrings(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 20, AvgDeg: 3, Exponent: 2.2, Directed: true, Seed: 1})
	if _, err := partition.FromVertexAssignment(g, make([]int, 3), 2); err == nil ||
		!strings.Contains(err.Error(), "covers 3 of") {
		t.Fatalf("short assignment not rejected: %v", err)
	}
	bad := make([]int, g.NumVertices())
	bad[7] = 9
	if _, err := partition.FromVertexAssignment(g, bad, 2); err == nil ||
		!strings.Contains(err.Error(), "vertex 7 assigned to fragment 9") {
		t.Fatalf("out-of-range assignment not rejected: %v", err)
	}
}

// constructionGraph is the graph the cost locks build over: the batch
// workloads' shape at their size.
func constructionGraph() *graph.Graph {
	return gen.PowerLaw(gen.PowerLawConfig{N: 6000, AvgDeg: 8, Exponent: 2.1, Directed: false, Seed: 7})
}

func BenchmarkConstructVertexAssignment(b *testing.B) {
	g := constructionGraph()
	assign := make([]int, g.NumVertices())
	for v := range assign {
		assign[v] = (v * 13) % 8
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partition.FromVertexAssignment(g, assign, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConstructEdgeAssignment(b *testing.B) {
	g := constructionGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partition.FromEdgeAssignment(g, func(s, d graph.VertexID) int { return int(s*7+d*13) % 8 }, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRefineThenCompile is the refine → cluster hand-off: a
// refiner-sized move (every 50th vertex migrated whole to the next
// fragment) on a freshly built partition, then the fold NewCluster pays.
func BenchmarkRefineThenCompile(b *testing.B) {
	g := constructionGraph()
	assign := make([]int, g.NumVertices())
	for v := range assign {
		assign[v] = (v * 13) % 8
	}
	base, err := partition.FromVertexAssignment(g, assign, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := base.CloneCOW()
		for v := 0; v < g.NumVertices(); v += 50 {
			vid, to := graph.VertexID(v), (assign[v]+1)%8
			for _, w := range g.OutNeighbors(vid) {
				p.AddEdge(to, vid, w)
			}
			p.RemoveVertex(assign[v], vid)
		}
		p.Compile()
	}
}
