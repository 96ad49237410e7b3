package partition_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"adp/internal/costmodel"
	"adp/internal/gen"
	"adp/internal/graph"
	"adp/internal/partition"
	"adp/internal/partitioner"
	"adp/internal/pool"
	"adp/internal/refine"
)

// buildShape produces one of the partition shapes the engine executes
// over: a random edge-cut, a refined edge-cut (E2H output, so hybrid
// with v-cut splits), or a refined vertex-cut (V2H output).
func buildShape(t testing.TB, seed int64, mode int) *partition.Partition {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 260, AvgDeg: 5, Exponent: 2.1, Directed: true, Seed: seed})
	switch mode % 3 {
	case 0:
		rng := rand.New(rand.NewSource(seed + 1))
		assign := make([]int, g.NumVertices())
		for i := range assign {
			assign[i] = rng.Intn(4)
		}
		p, err := partition.FromVertexAssignment(g, assign, 4)
		if err != nil {
			t.Fatal(err)
		}
		return p
	case 1:
		p, err := partitioner.FennelEdgeCut(g, 4, partitioner.FennelConfig{})
		if err != nil {
			t.Fatal(err)
		}
		refine.E2H(p, costmodel.Reference(costmodel.PR), refine.Config{})
		return p
	default:
		p, err := partitioner.GridVertexCut(g, 4)
		if err != nil {
			t.Fatal(err)
		}
		refine.V2H(p, costmodel.Reference(costmodel.WCC), refine.Config{})
		return p
	}
}

// sameFragment compares every accessor the engine relies on between a
// map-form fragment and its compiled twin.
func sameFragment(t *testing.T, p, q *partition.Partition, i int) {
	t.Helper()
	sameReads(t, p, q, i)
	f, cf := p.Fragment(i), q.Fragment(i)
	pk := cf.Packed()
	if slots := len(pk.Arcs); f.NumArcs() != slots || len(pk.Out) != slots || len(pk.In) != slots {
		t.Fatalf("frag %d: NumArcs %d vs %d arc slots, %d out and %d in entries", i, f.NumArcs(), slots, len(pk.Out), len(pk.In))
	}
	// The packed view is what the engine's scan plan addresses by
	// index: local ids walk Vertices' order, the lists of consecutive
	// local ids lie back to back in Out and In, ArcOff is the running
	// out-degree, and an arc's slot lies in its source's ArcOff range.
	l, out, in := 0, 0, 0
	cf.Vertices(func(v graph.VertexID, adj *partition.Adj) {
		if pk.IDs[l] != v || int(pk.Local[v]) != l {
			t.Fatalf("frag %d vertex %d: packed IDs/Local roundtrip broke (l=%d)", i, v, l)
		}
		if int(pk.ArcOff[l]) != out || !slices.Equal(pk.Adjs[l].Out, adj.Out) || !slices.Equal(pk.Adjs[l].In, adj.In) ||
			!slices.Equal(pk.Out[out:out+len(adj.Out)], adj.Out) || !slices.Equal(pk.In[in:in+len(adj.In)], adj.In) {
			t.Fatalf("frag %d vertex %d: packed lists do not lie at out %d / in %d", i, v, out, in)
		}
		for _, x := range adj.Out {
			if slot, ok := cf.ArcIndex(v, x); !ok || slot < out || slot >= out+len(adj.Out) || pk.Arcs[slot] != uint64(v)<<32|uint64(x) {
				t.Fatalf("frag %d arc (%d,%d): slot %d outside its source's range [%d,%d)", i, v, x, slot, out, out+len(adj.Out))
			}
		}
		l, out, in = l+1, out+len(adj.Out), in+len(adj.In)
	})
	if len(pk.IDs) != l || int(pk.ArcOff[l]) != out || !slices.IsSorted(pk.Arcs) {
		t.Fatalf("frag %d: packed view ends at %d ids / offset %d, walk at %d / %d", i, len(pk.IDs), pk.ArcOff[l], l, out)
	}
}

// sameReads compares what the form-independent accessors answer for
// fragment i of two partitions, whatever form either is in.
func sameReads(t *testing.T, p, q *partition.Partition, i int) {
	t.Helper()
	f, cf := p.Fragment(i), q.Fragment(i)
	if f.NumVertices() != cf.NumVertices() || f.NumArcs() != cf.NumArcs() {
		t.Fatalf("frag %d: (%d vertices, %d arcs) vs (%d, %d)", i, f.NumVertices(), f.NumArcs(), cf.NumVertices(), cf.NumArcs())
	}
	// Vertices must visit the same ids in the same (ascending) order
	// with identical adjacency contents and order.
	var mv, cv []graph.VertexID
	f.Vertices(func(v graph.VertexID, _ *partition.Adj) { mv = append(mv, v) })
	cf.Vertices(func(v graph.VertexID, _ *partition.Adj) { cv = append(cv, v) })
	if !slices.Equal(mv, cv) || !slices.Equal(mv, f.SortedVertices()) || !slices.Equal(cv, cf.SortedVertices()) {
		t.Fatalf("frag %d: vertex walks differ: %v vs %v", i, mv, cv)
	}
	for _, v := range cv {
		ma, ca := f.Adjacency(v), cf.Adjacency(v)
		if !slices.Equal(ma.Out, ca.Out) || !slices.Equal(ma.In, ca.In) {
			t.Fatalf("frag %d vertex %d: adjacency (%v,%v) vs (%v,%v)", i, v, ma.Out, ma.In, ca.Out, ca.In)
		}
		if !f.Has(v) || !cf.Has(v) {
			t.Fatalf("frag %d: walked vertex %d reported absent", i, v)
		}
		if p.Status(i, v) != q.Status(i, v) {
			t.Fatalf("frag %d vertex %d: status %v vs %v", i, v, p.Status(i, v), q.Status(i, v))
		}
	}
}

// Property: on randomized partitions of every family — including
// post-refinement hybrid shapes — the compiled accessors agree with
// the mutable map form on everything the engine reads. Compile folds
// fragments on the shared pool, so the property is checked at 1, 4 and
// NumCPU pool workers.
func TestQuickCompileEquivalence(t *testing.T) {
	t.Cleanup(func() { pool.SetDefaultWorkers(0) })
	for _, w := range []int{1, 4, runtime.NumCPU()} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			pool.SetDefaultWorkers(w)
			checkQuickCompileEquivalence(t)
		})
	}
}

func checkQuickCompileEquivalence(t *testing.T) {
	f := func(seed int64, modeRaw uint8) bool {
		mode := int(modeRaw) % 3
		p := buildShape(t, seed, mode)
		q := p.Clone()
		q.Compile()
		for i := 0; i < p.NumFragments(); i++ {
			if q.Fragment(i).Compiled() != true {
				return false
			}
			sameFragment(t, p, q, i)
		}
		// HasArc: every graph arc, probed both ways round (the reverse
		// direction is usually a miss), at every fragment.
		ok := true
		p.Graph().Edges(func(u, v graph.VertexID) bool {
			for i := 0; i < p.NumFragments(); i++ {
				if p.Fragment(i).HasArc(u, v) != q.Fragment(i).HasArc(u, v) ||
					p.Fragment(i).HasArc(v, u) != q.Fragment(i).HasArc(v, u) {
					ok = false
					return false
				}
			}
			return true
		})
		return ok && mutateRecompileEquivalent(t, p, seed) && refinerOverlaysEquivalent(t, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// mutateRecompileEquivalent drives seeded random AddArc / RemoveArc /
// RemoveVertex sequences through a CloneCOW'd (compiled, shared)
// partition and, in lockstep, through a deep Clone that is never
// compiled — the oracle that keeps every vertex in its maps. After
// every Compile the merged base must equal, array for array, a
// from-scratch compile of a copy of the oracle, and every snapshot cut
// earlier must still be bit for bit what it was when it was cut.
func mutateRecompileEquivalent(t *testing.T, p *partition.Partition, seed int64) bool {
	t.Helper()
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	n, nv := p.NumFragments(), p.Graph().NumVertices()
	live := p.Clone()
	oracle := p.Clone()

	type cut struct {
		part *partition.Partition
		want []*partition.BaseSnapshot
	}
	snapshot := func(q *partition.Partition) cut {
		c := cut{part: q}
		for i := 0; i < n; i++ {
			c.want = append(c.want, partition.SnapshotBase(q.Fragment(i)))
		}
		return c
	}
	cuts := []cut{snapshot(live.CloneCOW())}

	for round := 0; round < 6; round++ {
		touched := make([]bool, n)
		for op := 0; op < 1+rng.Intn(12); op++ {
			i := rng.Intn(n)
			f := live.Fragment(i)
			before := [2]int{f.NumVertices(), f.NumArcs()}
			verts := f.SortedVertices()
			switch k := rng.Intn(10); {
			case k < 4 || len(verts) == 0: // add an arc, sometimes to a vertex new to the fragment
				u, v := graph.VertexID(rng.Intn(nv)), graph.VertexID(rng.Intn(nv))
				if len(verts) > 0 && rng.Intn(2) == 0 {
					u = verts[rng.Intn(len(verts))]
				}
				live.AddArc(i, u, v)
				oracle.AddArc(i, u, v)
			case k < 8: // remove a stored arc (or miss)
				u := verts[rng.Intn(len(verts))]
				v := graph.VertexID(rng.Intn(nv))
				if out := f.Adjacency(u).Out; len(out) > 0 {
					v = out[rng.Intn(len(out))]
				}
				if live.RemoveArc(i, u, v) != oracle.RemoveArc(i, u, v) {
					t.Errorf("round %d: RemoveArc(%d,%d,%d) disagrees with the oracle", round, i, u, v)
					return false
				}
			default:
				v := verts[rng.Intn(len(verts))]
				live.RemoveVertex(i, v)
				oracle.RemoveVertex(i, v)
			}
			if before != [2]int{f.NumVertices(), f.NumArcs()} {
				touched[i] = true
			}
		}
		for i := 0; i < n; i++ {
			f := live.Fragment(i)
			if remap, slots := f.LocalRemap(nv); touched[i] && (f.Compiled() || remap != nil || slots != 0) {
				t.Errorf("round %d: fragment %d has an overlay yet reports compiled", round, i)
				return false
			}
			sameReads(t, oracle, live, i)
		}
		if err := live.EqualPlacement(oracle); err != nil {
			t.Errorf("round %d: overlay reads diverge from the oracle: %v", round, err)
			return false
		}

		next := live.CloneCOW() // compiles live: the linear merge under test
		ref := oracle.Clone().Compile()
		prev := cuts[len(cuts)-1].part
		for i := 0; i < n; i++ {
			if !live.Fragment(i).Compiled() {
				t.Errorf("round %d: fragment %d not compiled after CloneCOW", round, i)
				return false
			}
			if d := partition.SnapshotBase(live.Fragment(i)).Diff(partition.SnapshotBase(ref.Fragment(i))); d != "" {
				t.Errorf("round %d: fragment %d: merged base differs from the from-scratch compile in %s", round, i, d)
				return false
			}
			if err := partition.CheckPacked(live.Fragment(i)); err != nil {
				t.Errorf("round %d: %v", round, err)
				return false
			}
			sameVerts := slices.Equal(live.Fragment(i).SortedVertices(), prev.Fragment(i).SortedVertices())
			if shared := partition.SharesIDs(live.Fragment(i), prev.Fragment(i)); shared != sameVerts {
				t.Errorf("round %d: fragment %d: vertex set unchanged=%v but ids/local shared=%v", round, i, sameVerts, shared)
				return false
			}
		}
		if err := next.EqualPlacement(ref); err != nil {
			t.Errorf("round %d: cut diverges from the oracle: %v", round, err)
			return false
		}
		for c, old := range cuts {
			for i := 0; i < n; i++ {
				if d := old.want[i].Diff(partition.SnapshotBase(old.part.Fragment(i))); d != "" {
					t.Errorf("round %d: cut %d fragment %d changed after it was cut (%s)", round, c, i, d)
					return false
				}
			}
		}
		cuts = append(cuts, snapshot(next))
	}
	return true
}

// refinerOverlaysEquivalent folds the overlays a refiner leaves on a
// compiled 4-fragment partition — a hub moved out of fragment 0 whole
// into fragment 1, a vertex of fragment 2 dropped to a tombstone, an
// arc of fragment 3 deleted and re-inserted — and holds the fold to the
// from-scratch compile of a deep Clone taken through the same calls.
// Fragment 3's arc set is back where it was, so its new base must still
// share the arc array with the old one.
func refinerOverlaysEquivalent(t *testing.T, p *partition.Partition) bool {
	t.Helper()
	live, oracle := p.CloneCOW(), p.Clone()
	prev := live.CloneCOW()
	hub := live.Fragment(0).SortedVertices()[0]
	live.Fragment(0).Vertices(func(v graph.VertexID, adj *partition.Adj) {
		if adj.LocalDegree() > live.Fragment(0).Adjacency(hub).LocalDegree() {
			hub = v
		}
	})
	dropped := live.Fragment(2).SortedVertices()[0]
	var u, w graph.VertexID
	live.Fragment(3).Vertices(func(v graph.VertexID, adj *partition.Adj) {
		if len(adj.Out) > 0 {
			u, w = v, adj.Out[0]
		}
	})
	adj := live.Fragment(0).Adjacency(hub)
	out, in := slices.Clone(adj.Out), slices.Clone(adj.In)
	for _, q := range []*partition.Partition{live, oracle} {
		for _, x := range out {
			q.AddArc(1, hub, x)
		}
		for _, x := range in {
			q.AddArc(1, x, hub)
		}
		q.RemoveVertex(0, hub)
		q.RemoveVertex(2, dropped)
		if !q.RemoveArc(3, u, w) {
			t.Errorf("arc (%d,%d) missing from fragment 3", u, w)
			return false
		}
		q.AddArc(3, u, w)
	}
	if live.Fragment(0).Has(hub) || live.Fragment(2).Has(dropped) || !live.Fragment(3).HasArc(u, w) {
		t.Errorf("overlay reads wrong after the refiner-shaped moves")
		return false
	}
	live.Compile()
	oracle.Compile()
	for i := 0; i < live.NumFragments(); i++ {
		if d := partition.SnapshotBase(live.Fragment(i)).Diff(partition.SnapshotBase(oracle.Fragment(i))); d != "" {
			t.Errorf("refiner-shaped overlay: fragment %d: fold differs from the from-scratch compile in %s", i, d)
			return false
		}
		if err := partition.CheckPacked(live.Fragment(i)); err != nil {
			t.Error(err)
			return false
		}
	}
	if !partition.SharesArcs(live.Fragment(3), prev.Fragment(3)) || partition.SharesArcs(live.Fragment(0), prev.Fragment(0)) {
		t.Errorf("arc array sharing: fragment 3 (arc set unchanged) must share with the old base, fragment 0 (hub gone) must not")
		return false
	}
	if err := live.EqualPlacement(oracle); err != nil {
		t.Errorf("refiner-shaped overlay: fold diverges from the oracle: %v", err)
		return false
	}
	return true
}

// ringPartition is a 2-fragment partition of the n-vertex graph with
// arcs (i,i+1) and (i,i+2) mod n: every vertex has in- and out-degree
// 2, whatever n is.
func ringPartition(t testing.TB, n int) *partition.Partition {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(graph.VertexID(i), graph.VertexID((i+1)%n))
		b.AddEdge(graph.VertexID(i), graph.VertexID((i+2)%n))
	}
	assign := make([]int, n)
	for v := n / 2; v < n; v++ {
		assign[v] = 1
	}
	p, err := partition.FromVertexAssignment(b.MustBuild(), assign, 2)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// One arc delete + insert on a compiled fragment thaws its two
// endpoints, not the fragment: the number of objects it allocates does
// not depend on how many vertices the fragment holds.
func TestThawAllocsIndependentOfFragmentSize(t *testing.T) {
	allocs := func(n int) float64 {
		p := ringPartition(t, n)
		p.CloneCOW()
		return testing.AllocsPerRun(20, func() {
			q := p.CloneCOW() // a fixed number of objects per fragment count
			if !q.RemoveArc(0, 3, 4) {
				t.Fatal("arc (3,4) missing from fragment 0")
			}
			q.AddArc(0, 3, 4)
			if q.Fragment(0).Compiled() || !q.Fragment(1).Compiled() {
				t.Fatal("exactly fragment 0 should carry an overlay")
			}
		})
	}
	small, large := allocs(200), allocs(2000)
	if small != large {
		t.Fatalf("delete+insert of one arc allocates %.0f objects on a 100-vertex fragment, %.0f on a 1000-vertex one", small, large)
	}
}

// Structural mutation must drop the compiled form, fall back to the
// map path coherently, and recompile to the updated structure.
func TestCompileInvalidatedByMutation(t *testing.T) {
	p := buildShape(t, 42, 0)
	p.Compile()
	f := p.Fragment(0)
	if !f.Compiled() {
		t.Fatal("fragment not compiled after Compile")
	}
	// Pick an arc not yet present in fragment 0.
	var u, v graph.VertexID
	found := false
	p.Graph().Edges(func(a, b graph.VertexID) bool {
		if !f.HasArc(a, b) {
			u, v, found = a, b, true
			return false
		}
		return true
	})
	if !found {
		t.Skip("fragment 0 holds every arc")
	}
	p.AddArc(0, u, v)
	if f.Compiled() {
		t.Fatal("AddArc did not invalidate the compiled form")
	}
	if !f.HasArc(u, v) {
		t.Fatal("map fallback does not see the new arc")
	}
	p.Compile()
	if !f.Compiled() || !f.HasArc(u, v) {
		t.Fatal("recompiled form does not see the new arc")
	}
	if _, ok := f.ArcIndex(u, v); !ok {
		t.Fatal("recompiled arc index misses the new arc")
	}
	if p.Validate() != nil {
		t.Fatal("partition invalid after mutation")
	}
}

// BenchmarkFragmentHasArc compares arc-presence probes on the mutable
// map form against the compiled CSR form, over every graph arc at
// every fragment (hits and misses mixed, as in engine execution).
func BenchmarkFragmentHasArc(b *testing.B) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 4000, AvgDeg: 8, Exponent: 2.1, Directed: true, Seed: 7})
	assign := make([]int, g.NumVertices())
	for v := range assign {
		assign[v] = (v * 13) % 8
	}
	p, err := partition.FromVertexAssignment(g, assign, 8)
	if err != nil {
		b.Fatal(err)
	}
	type arc struct{ u, v graph.VertexID }
	var arcsList []arc
	g.Edges(func(u, v graph.VertexID) bool {
		arcsList = append(arcsList, arc{u, v})
		return true
	})
	probe := func(b *testing.B, p *partition.Partition) {
		b.ReportAllocs()
		b.ResetTimer()
		hits := 0
		for i := 0; i < b.N; i++ {
			for _, a := range arcsList {
				for f := 0; f < p.NumFragments(); f++ {
					if p.Fragment(f).HasArc(a.u, a.v) {
						hits++
					}
				}
			}
		}
		if hits == 0 {
			b.Fatal("no hits")
		}
	}
	compiled := p.Clone().Compile()
	b.Run("map", func(b *testing.B) { probe(b, p) })
	b.Run("csr", func(b *testing.B) { probe(b, compiled) })
}

// BenchmarkMutateRecompile is the serving plane's write path on one
// partition: a one-arc change on a compiled 8-fragment partition, then
// the CloneCOW that folds the touched fragment's overlay into a new
// base by linear merge and shares the other seven.
func BenchmarkMutateRecompile(b *testing.B) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 4000, AvgDeg: 8, Exponent: 2.1, Directed: true, Seed: 7})
	assign := make([]int, g.NumVertices())
	for v := range assign {
		assign[v] = (v * 13) % 8
	}
	p, err := partition.FromVertexAssignment(g, assign, 8)
	if err != nil {
		b.Fatal(err)
	}
	type arc struct{ u, v graph.VertexID }
	var arcsList []arc
	g.Edges(func(u, v graph.VertexID) bool {
		arcsList = append(arcsList, arc{u, v})
		return true
	})
	sink := p.CloneCOW()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := arcsList[(i*7919)%len(arcsList)]
		f := assign[a.u]
		if i%2 == 0 {
			p.RemoveArc(f, a.u, a.v)
		} else {
			p.AddArc(f, a.u, a.v)
		}
		sink = p.CloneCOW()
	}
	if sink.NumFragments() != 8 {
		b.Fatal("lost fragments")
	}
}

// Compile's contract for the bench grids: goroutines that build
// clusters over one shared, otherwise quiescent partition may compile
// it concurrently and read it meanwhile; every one of them ends up with
// the base a lone Compile produces. Run under -race.
func TestConcurrentCompileOfSharedPartition(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		p := buildShape(t, seed, int(seed))
		ref := p.Clone().Compile()
		if seed%2 == 1 { // an overlay over a base, not only over none
			p.Compile()
			p.RemoveVertex(0, p.Fragment(0).SortedVertices()[0])
			ref.RemoveVertex(0, ref.Fragment(0).SortedVertices()[0])
			ref.Compile()
		}
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.Compile()
				for i := 0; i < p.NumFragments(); i++ {
					f, rf := p.Fragment(i), ref.Fragment(i)
					if f.NumVertices() != rf.NumVertices() || f.NumArcs() != rf.NumArcs() || !slices.Equal(f.SortedVertices(), rf.SortedVertices()) {
						t.Errorf("seed %d fragment %d: reads during the racing compiles diverge", seed, i)
					}
				}
			}()
		}
		wg.Wait()
		for i := 0; i < p.NumFragments(); i++ {
			if d := partition.SnapshotBase(p.Fragment(i)).Diff(partition.SnapshotBase(ref.Fragment(i))); d != "" {
				t.Fatalf("seed %d fragment %d: concurrently compiled base differs in %s", seed, i, d)
			}
		}
	}
}
