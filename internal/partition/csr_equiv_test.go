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
	// The packed view is what the engine's scan plan addresses by
	// index: local ids walk Vertices' order; the arc slots run through
	// them in that order, each source's out-arcs one sorted run
	// (ArcRun), and an arc's slot lies in its source's run.
	l, out := 0, 0
	cf.Vertices(func(v graph.VertexID, adj *partition.Adj) {
		if pk.IDs[l] != v || int(pk.Local[v]) != l {
			t.Fatalf("frag %d vertex %d: packed IDs/Local roundtrip broke (l=%d)", i, v, l)
		}
		run, first := cf.ArcRun(v)
		if first != out && len(run) > 0 || len(run) != len(adj.Out) || !slices.IsSorted(run) {
			t.Fatalf("frag %d vertex %d: arc run (%d arcs from slot %d) does not match, want slot %d", i, v, len(run), first, out)
		}
		for _, x := range adj.Out {
			if slot, ok := cf.ArcIndex(v, x); !ok || slot < out || slot >= out+len(adj.Out) || run[slot-first] != uint64(v)<<32|uint64(x) {
				t.Fatalf("frag %d arc (%d,%d): slot %d outside its source's range [%d,%d)", i, v, x, slot, out, out+len(adj.Out))
			}
		}
		l, out = l+1, out+len(adj.Out)
	})
	if len(pk.IDs) != l || out != f.NumArcs() {
		t.Fatalf("frag %d: packed view holds %d ids, the walk %d with %d arc slots of %d", i, len(pk.IDs), l, out, f.NumArcs())
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
		return ok && mutateRecompileEquivalent(t, p, seed) && refinerOverlaysEquivalent(t, p) && chunkBoundaryFolds(t, p.Graph(), seed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// mutateRecompileEquivalent drives seeded random AddArc / RemoveArc /
// RemoveVertex sequences through a CloneCOW'd (compiled, shared)
// partition and, in lockstep, through an OverlayClone that is never
// compiled — the oracle that keeps every vertex in its overlay. After
// every Compile the merged base must equal, array for array, a
// from-scratch compile of a copy of the oracle (Clone), and every snapshot cut
// earlier must still be bit for bit what it was when it was cut.
func mutateRecompileEquivalent(t *testing.T, p *partition.Partition, seed int64) bool {
	t.Helper()
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	n, nv := p.NumFragments(), p.Graph().NumVertices()
	live := p.Clone()
	oracle := partition.OverlayClone(p)

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
// Fragment 3's arc set is back where it was, so the chunk holding the
// arc's source must still share its arc array with the old one.
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
	if !partition.SharesArcRun(live.Fragment(3), prev.Fragment(3), u) || partition.SharesArcRun(live.Fragment(0), prev.Fragment(0), hub) {
		t.Errorf("arc array sharing: fragment 3's chunk of %d (arc set unchanged) must share with the old base, fragment 0's of the hub (gone) must not", u)
		return false
	}
	if err := live.EqualPlacement(oracle); err != nil {
		t.Errorf("refiner-shaped overlay: fold diverges from the oracle: %v", err)
		return false
	}
	return true
}

// chunkBoundaryFolds folds waves across chunk boundaries on a compiled
// 5-fragment partition of g whose last fragment is built empty, and
// drives an OverlayClone through the same calls: a hub that holds a
// chunk of its own is rewired; a middle chunk is emptied by deletes
// and then refilled; a vertex copy is added in a middle chunk; a chunk
// grows past twice its build-time entries; and the fragment of one
// chunk grows from nothing. After every fold each fragment keeps its
// build-time boundaries and equals, array for array, the from-scratch
// compile of the oracle.
func chunkBoundaryFolds(t *testing.T, g *graph.Graph, seed int64) bool {
	t.Helper()
	rng := rand.New(rand.NewSource(seed ^ 0xc4a7))
	assign := make([]int, g.NumVertices())
	for v := range assign {
		assign[v] = rng.Intn(4)
	}
	built, err := partition.FromVertexAssignment(g, assign, 5)
	if err != nil {
		t.Fatal(err)
	}
	live, oracle := built.CloneCOW(), partition.OverlayClone(built)
	both := func(fn func(q *partition.Partition)) { fn(live); fn(oracle) }
	bounds := make([][]graph.VertexID, 5)
	for i := range bounds {
		bounds[i] = partition.ChunkBounds(live.Fragment(i))
	}
	if len(bounds[4]) != 1 || live.Fragment(4).NumArcs() != 0 {
		t.Errorf("the empty fragment should be one chunk, has %d", len(bounds[4]))
		return false
	}
	// chunkOf is the build-time chunk of v in fragment i; ids the
	// build-time range of chunk k there.
	chunkOf := func(i int, v graph.VertexID) int {
		k, found := slices.BinarySearch(bounds[i], v)
		if !found {
			k--
		}
		return k
	}
	ids := func(i, k int) (lo, hi graph.VertexID) {
		lo, hi = bounds[i][k], graph.VertexID(g.NumVertices())
		if k+1 < len(bounds[i]) {
			hi = bounds[i][k+1]
		}
		return lo, hi
	}
	fold := func(what string) bool {
		next := live.CloneCOW()
		ref := oracle.Clone()
		for i := range bounds {
			f := live.Fragment(i)
			if !slices.Equal(partition.ChunkBounds(f), bounds[i]) {
				t.Errorf("%s: fragment %d: the fold moved the chunk boundaries", what, i)
				return false
			}
			if d := partition.SnapshotBase(f).Diff(partition.SnapshotBase(ref.Fragment(i))); d != "" {
				t.Errorf("%s: fragment %d: fold differs from the from-scratch compile in %s", what, i, d)
				return false
			}
			if err := partition.CheckPacked(f); err != nil {
				t.Errorf("%s: %v", what, err)
				return false
			}
		}
		if err := next.EqualPlacement(ref); err != nil {
			t.Errorf("%s: %v", what, err)
			return false
		}
		return true
	}

	// A hub of fragment 0 holds a chunk of its own: its lists exceed a
	// 64th of the fragment's entries. Drop one of its arcs, add another.
	f0 := live.Fragment(0)
	var hub graph.VertexID
	f0.Vertices(func(v graph.VertexID, adj *partition.Adj) {
		if adj.LocalDegree() > f0.Adjacency(hub).LocalDegree() {
			hub = v
		}
	})
	share := (2*f0.NumArcs() + 63) / 64
	if hk := chunkOf(0, hub); !slices.Equal(partition.ChunkIDs(f0, hk), []graph.VertexID{hub}) || f0.Adjacency(hub).LocalDegree() <= share {
		t.Errorf("hub %d (%d entries, share %d) does not hold a chunk of its own", hub, f0.Adjacency(hub).LocalDegree(), share)
		return false
	}
	out, to := slices.Clone(f0.Adjacency(hub).Out), graph.VertexID(rng.Intn(g.NumVertices()))
	both(func(q *partition.Partition) {
		if len(out) > 0 {
			q.RemoveArc(0, hub, out[0])
		}
		q.AddArc(0, hub, to)
	})
	if !fold("hub") {
		return false
	}

	// Empty a middle chunk of fragment 1 by deletes, then refill it.
	k1 := len(bounds[1]) / 2
	var arcs [][2]graph.VertexID
	for _, v := range partition.ChunkIDs(live.Fragment(1), k1) {
		adj := live.Fragment(1).Adjacency(v)
		for _, w := range adj.Out {
			arcs = append(arcs, [2]graph.VertexID{v, w})
		}
		for _, w := range adj.In {
			arcs = append(arcs, [2]graph.VertexID{w, v})
		}
	}
	both(func(q *partition.Partition) {
		for _, a := range arcs {
			q.RemoveArc(1, a[0], a[1])
		}
	})
	if !fold("emptied") {
		return false
	}
	f1 := live.Fragment(1)
	if n := partition.ChunkEntries(f1)[k1]; n != 0 || len(arcs) == 0 {
		t.Errorf("chunk %d of fragment 1 held %d arcs and still holds %d entries after they were deleted", k1, len(arcs), n)
		return false
	}
	for _, v := range partition.ChunkIDs(f1, k1) {
		if f1.Adjacency(v).LocalDegree() != 0 {
			t.Errorf("vertex %d of the emptied chunk kept its lists", v)
			return false
		}
	}
	both(func(q *partition.Partition) {
		for _, a := range arcs {
			q.AddArc(1, a[0], a[1])
		}
	})
	if !fold("refilled") {
		return false
	}

	// Add a vertex copy in a middle chunk of fragment 2: an id of the
	// chunk's range the fragment holds no copy of.
	f2 := live.Fragment(2)
	added := false
	for k := 1; k+1 < len(bounds[2]) && !added; k++ {
		lo, hi := ids(2, k)
		for x := lo; x < hi && !added; x++ {
			if !f2.Has(x) {
				y := partition.ChunkIDs(f2, 0)[0]
				both(func(q *partition.Partition) { q.AddArc(2, x, y) })
				if !fold("new copy") {
					return false
				}
				if added = slices.Contains(partition.ChunkIDs(f2, k), x); !added {
					t.Errorf("vertex %d added to fragment 2 is not in chunk %d, whose range holds it", x, k)
					return false
				}
			}
		}
	}
	if !added {
		t.Errorf("fragment 2 holds every id of its middle chunks")
		return false
	}

	// Grow a middle chunk of fragment 3 past twice its build-time size.
	k3 := len(bounds[3]) / 2
	before := partition.ChunkEntries(live.Fragment(3))[k3]
	src := partition.ChunkIDs(live.Fragment(3), k3)
	for n, w := 0, graph.VertexID(0); n <= before && int(w) < g.NumVertices(); w++ {
		if u := src[int(w)%len(src)]; u != w && !live.Fragment(3).HasArc(u, w) {
			both(func(q *partition.Partition) { q.AddArc(3, u, w) })
			n++
		}
	}
	if !fold("grown") {
		return false
	}
	if after := partition.ChunkEntries(live.Fragment(3))[k3]; after <= 2*before {
		t.Errorf("chunk %d of fragment 3 grew from %d to %d entries, want more than twice", k3, before, after)
		return false
	}

	// The empty fragment: one chunk, grown from nothing.
	both(func(q *partition.Partition) {
		for v := 0; v < g.NumVertices(); v += 7 {
			q.AddArc(4, graph.VertexID(v), graph.VertexID((v*31+5)%g.NumVertices()))
		}
	})
	if !fold("one chunk") {
		return false
	}
	if f := live.Fragment(4); f.NumChunks() != 1 || f.NumArcs() == 0 {
		t.Errorf("the fragment of one chunk has %d chunks and %d arcs after growing", f.NumChunks(), f.NumArcs())
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

// Clone hands the refiners a compiled copy; they must take exactly the
// steps they take on the never-compiled OverlayClone of the same
// partition: the same Stats and the same placement, for every model,
// through both parallel refiners, on directed and undirected graphs.
func TestRefineCloneMatchesOverlayClone(t *testing.T) {
	for _, directed := range []bool{true, false} {
		g := gen.PowerLaw(gen.PowerLawConfig{N: 3000, AvgDeg: 6, Exponent: 2.1, Directed: directed, Seed: 59})
		ec, err := partitioner.FennelEdgeCut(g, 6, partitioner.FennelConfig{})
		if err != nil {
			t.Fatal(err)
		}
		vc, err := partitioner.GridVertexCut(g, 6)
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range costmodel.Algos() {
			m := costmodel.Reference(algo)
			for _, r := range []struct {
				name   string
				base   *partition.Partition
				refine func(*partition.Partition, costmodel.CostModel, refine.Config) *refine.Stats
			}{{"ParE2H", ec, refine.ParE2H}, {"ParV2H", vc, refine.ParV2H}} {
				label := fmt.Sprintf("directed=%v/%v/%s", directed, algo, r.name)
				compiled, overlay := r.base.Clone(), partition.OverlayClone(r.base)
				for i := 0; i < compiled.NumFragments(); i++ {
					if !compiled.Fragment(i).Compiled() || overlay.Fragment(i).Compiled() {
						t.Fatalf("%s: fragment %d: Clone not compiled, or OverlayClone compiled", label, i)
					}
				}
				got, want := r.refine(compiled, m, refine.Config{}), r.refine(overlay, m, refine.Config{})
				if got.Budget != want.Budget || got.Migrated != want.Migrated || got.SplitEdges != want.SplitEdges ||
					got.Merged != want.Merged || got.MastersMoved != want.MastersMoved {
					t.Errorf("%s: %v on Clone, %v on OverlayClone", label, got, want)
				}
				if err := compiled.EqualPlacement(overlay); err != nil {
					t.Errorf("%s: %v", label, err)
				}
			}
		}
	}
}
