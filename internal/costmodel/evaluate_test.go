package costmodel

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"adp/internal/gen"
	"adp/internal/graph"
	"adp/internal/partition"
	"adp/internal/pool"
)

// buildG1 reconstructs the Fig. 1(a) graph (see partition fixtures).
func buildG1(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(10)
	for _, e := range [][2]graph.VertexID{
		{0, 5}, {0, 6}, {0, 7}, {1, 5}, {1, 6}, {2, 6}, {2, 7}, {2, 8},
		{3, 6}, {3, 7}, {3, 9}, {4, 8}, {4, 9},
	} {
		b.AddEdge(e[0], e[1])
	}
	return b.MustBuild()
}

func fig1bPartition(t testing.TB, g *graph.Graph) *partition.Partition {
	t.Helper()
	p, err := partition.FromVertexAssignment(g, []int{0, 0, 1, 1, 1, 0, 0, 0, 1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestExtract(t *testing.T) {
	g := buildG1(t)
	p := fig1bPartition(t, g)
	// t2 (id 6) is owned by F0 with global in-degree 4, all four
	// in-arcs local at F0; F1 holds a dummy with the two replicated
	// cut arcs (from s3, s4).
	x0 := Extract(p, 0, 6)
	if x0[DLIn] != 4 || x0[DGIn] != 4 || x0[DLOut] != 0 || x0[Repl] != 1 {
		t.Fatalf("t2@F0 vars = %v", x0)
	}
	if x0[NotECut] != 0 {
		t.Fatal("t2@F0 is the e-cut node, I(v) must be 0")
	}
	x1 := Extract(p, 1, 6)
	if x1[DLIn] != 2 || x1[NotECut] != 1 {
		t.Fatalf("t2@F1 vars = %v", x1)
	}
	if got, want := x0[AvgDeg], 1.3; math.Abs(got-want) > 1e-12 {
		t.Fatalf("D = %v, want %v", got, want)
	}
}

// Example 8 computes CCN under hCN for Fig 1(b): F1 = 2.69e-3 ms and
// F2 = 7.45e-4 ms.
func TestEvaluateMatchesExample8(t *testing.T) {
	g := buildG1(t)
	p := fig1bPartition(t, g)
	costs := Evaluate(p, CostModel{H: Reference(CN).H, G: Zero})
	// Σ over owned targets of hCN with dL+ = dG+:
	// F0: t1(2,2) t2(4,4) t3(3,3); F1: t4(2,2) t5(2,2); sources add the
	// constant term only (dL+=0).
	hcn := func(dl, dg float64) float64 { return 9.23e-5*dl*dg + 1.04e-6*dl + 1.02e-6 }
	want0 := hcn(2, 2) + hcn(4, 4) + hcn(3, 3) + 2*hcn(0, 0)
	want1 := hcn(2, 2) + hcn(2, 2) + 3*hcn(0, 0)
	if math.Abs(costs[0].Comp-want0) > 1e-12 {
		t.Errorf("F0 comp = %v, want %v", costs[0].Comp, want0)
	}
	if math.Abs(costs[1].Comp-want1) > 1e-12 {
		t.Errorf("F1 comp = %v, want %v", costs[1].Comp, want1)
	}
	// Those are within rounding of the paper's 2.69e-3 / 7.45e-4.
	if math.Abs(costs[0].Comp-2.69e-3) > 2e-5 {
		t.Errorf("F0 comp = %v, paper reports 2.69e-3", costs[0].Comp)
	}
	if math.Abs(costs[1].Comp-7.45e-4) > 2e-5 {
		t.Errorf("F1 comp = %v, paper reports 7.45e-4", costs[1].Comp)
	}
}

func TestParallelCostAndLambda(t *testing.T) {
	costs := []FragCost{{Comp: 3, Comm: 1}, {Comp: 2, Comm: 0}}
	if got := ParallelCost(costs); got != 4 {
		t.Fatalf("ParallelCost = %v", got)
	}
	if got := TotalComp(costs); got != 5 {
		t.Fatalf("TotalComp = %v", got)
	}
	if got := LambdaCost(costs); math.Abs(got-(4.0/3.0-1)) > 1e-12 {
		t.Fatalf("LambdaCost = %v", got)
	}
}

func TestCommCountedAtMasterOnly(t *testing.T) {
	g := buildG1(t)
	p := fig1bPartition(t, g)
	m := CostModel{H: Zero, G: Func(func(x Vars) float64 { return 1 })}
	costs := Evaluate(p, m)
	// Border vertices: s3, s4 (dummies in F0, masters at F1 where they
	// were first placed as owners) and t2, t3 (masters at F0).
	total := costs[0].Comm + costs[1].Comm
	if total != 4 {
		t.Fatalf("unit comm total = %v, want 4 border masters", total)
	}
	// Reassigning a master moves its contribution.
	before0 := costs[0].Comm
	if err := p.SetMaster(6, 1); err != nil { // t2 -> F1
		t.Fatal(err)
	}
	costs = Evaluate(p, m)
	if costs[0].Comm != before0-1 {
		t.Fatalf("comm at F0 after master move = %v, want %v", costs[0].Comm, before0-1)
	}
}

// The tracker must agree with the full evaluation after any sequence
// of mutations + refreshes. This is the invariant the refiners rely
// on.
func TestTrackerMatchesEvaluate(t *testing.T) {
	g := gen.ErdosRenyi(80, 4, true, 21)
	rng := rand.New(rand.NewSource(22))
	assign := make([]int, g.NumVertices())
	for i := range assign {
		assign[i] = rng.Intn(3)
	}
	p, err := partition.FromVertexAssignment(g, assign, 3)
	if err != nil {
		t.Fatal(err)
	}
	// storm drives an identical deterministic mutation sequence against
	// the tracker, asserting agreement with the full evaluation before
	// and after; it returns the final per-fragment state so variants of
	// the same model can be compared bitwise.
	storm := func(tr *Tracker, m CostModel, label string) ([]float64, []float64) {
		q := tr2partition(tr)
		assertTrackerMatches(t, tr, q, m, label+" initial")
		srng := rand.New(rand.NewSource(23))
		edges := g.EdgeList()
		for step := 0; step < 200; step++ {
			e := edges[srng.Intn(len(edges))]
			frag := srng.Intn(3)
			switch srng.Intn(3) {
			case 0:
				q.AddArc(frag, e.Src, e.Dst)
			case 1:
				q.RemoveArc(frag, e.Src, e.Dst)
			case 2:
				v := graph.VertexID(srng.Intn(g.NumVertices()))
				cs := q.Copies(v)
				if len(cs) > 0 {
					_ = q.SetMaster(v, int(cs[srng.Intn(len(cs))]))
					tr.Refresh(v)
				}
				continue
			}
			tr.Refresh(e.Src, e.Dst)
		}
		assertTrackerMatches(t, tr, q, m, label+" after mutations")
		comp := make([]float64, q.NumFragments())
		comm := make([]float64, q.NumFragments())
		for i := range comp {
			comp[i], comm[i] = tr.Comp(i), tr.Comm(i)
		}
		return comp, comm
	}
	for _, algo := range Algos() {
		m := Reference(algo)
		rawComp, rawComm := storm(NewTracker(p.Clone(), m), m, algo.String())
		// A pre-compiled model must ride through the same storm to the
		// bitwise-identical state: the dense tracker compiles internally,
		// so handing it already-compiled kernels is a passthrough.
		cm := CompileCostModel(m)
		ccComp, ccComm := storm(NewTracker(p.Clone(), cm), cm, algo.String()+" compiled")
		for i := range rawComp {
			if math.Float64bits(rawComp[i]) != math.Float64bits(ccComp[i]) ||
				math.Float64bits(rawComm[i]) != math.Float64bits(ccComm[i]) {
				t.Fatalf("%v: compiled-model tracker diverged at fragment %d: comp %v vs %v, comm %v vs %v",
					algo, i, rawComp[i], ccComp[i], rawComm[i], ccComm[i])
			}
		}
	}

	// A seeded walk on a compiled partition, checked after every step:
	// moving a vertex's copy with all its arcs to another fragment drops
	// that copy (and the copies of neighbours left edge-less), so Refresh
	// must clear what they leave in the source fragment's slab; owner and
	// master changes reclassify a vertex without touching an arc.
	edges := g.EdgeList()
	for _, algo := range Algos() {
		m := Reference(algo)
		q := p.CloneCOW()
		tr := NewTracker(q, m)
		wrng := rand.New(rand.NewSource(24))
		for step := 0; step < 150; step++ {
			v := graph.VertexID(wrng.Intn(g.NumVertices()))
			frag := wrng.Intn(3)
			touched := []graph.VertexID{v}
			switch wrng.Intn(4) {
			case 0:
				adj := q.Fragment(frag).Adjacency(v)
				if adj == nil {
					continue
				}
				to := (frag + 1) % 3
				out, in := slices.Clone(adj.Out), slices.Clone(adj.In)
				for _, w := range out {
					q.RemoveArc(frag, v, w)
				}
				for _, w := range in {
					q.RemoveArc(frag, w, v)
				}
				q.AddVertex(to, v)
				for _, w := range out {
					q.AddArc(to, v, w)
				}
				for _, w := range in {
					q.AddArc(to, w, v)
				}
				touched = append(append(touched, out...), in...)
			case 1:
				q.SetOwner(v, frag)
			case 2:
				cs := q.Copies(v)
				if len(cs) == 0 {
					continue
				}
				if err := q.SetMaster(v, int(cs[wrng.Intn(len(cs))])); err != nil {
					t.Fatal(err)
				}
			case 3:
				e := edges[wrng.Intn(len(edges))]
				if !q.RemoveArc(frag, e.Src, e.Dst) {
					q.AddArc(frag, e.Src, e.Dst)
				}
				touched = []graph.VertexID{e.Src, e.Dst}
			}
			tr.RefreshSet(touched)
			assertTrackerMatches(t, tr, q, m, fmt.Sprintf("%v walk step %d", algo, step))
		}
	}
}

// A tracker over a sparsely filled map-form partition — NewEmpty plus a
// few arcs, as every composite build starts — sizes its slabs to what
// the fragments hold: its bytes must not scale with fragments × |V|
// Vars rows.
func TestNewTrackerSparseMapFormBytes(t *testing.T) {
	const nv, frags = 20000, 16
	g := gen.ErdosRenyi(nv, 2, false, 5)
	p := partition.NewEmpty(g, frags)
	for k, e := range g.EdgeList()[:200] {
		p.AddEdge(k%frags, e.Src, e.Dst)
	}
	m := Reference(CN)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tr := NewTracker(p, m)
	runtime.ReadMemStats(&after)
	dense := uint64(frags*nv) * uint64(unsafe.Sizeof(Vars{}))
	if got := after.TotalAlloc - before.TotalAlloc; got > dense/4 {
		t.Fatalf("NewTracker allocated %d bytes over %d sparse fragments of %d vertices; %d would be one Vars row per (fragment, vertex)",
			got, frags, nv, dense)
	}
	assertTrackerMatches(t, tr, p, m, "sparse map form")
}

// NewTracker seeds its slabs as one default-pool item per fragment; the
// tracker it returns must be bit for bit the same at any worker count,
// on a compiled partition and on one built by NewEmpty + AddEdge alike.
func TestNewTrackerIdenticalAcrossWorkers(t *testing.T) {
	t.Cleanup(func() { pool.SetDefaultWorkers(0) })
	g := gen.PowerLaw(gen.PowerLawConfig{N: 1200, AvgDeg: 6, Exponent: 2.1, Directed: true, Seed: 31})
	const frags = 6
	rng := rand.New(rand.NewSource(32))
	assign := make([]int, g.NumVertices())
	for v := range assign {
		assign[v] = rng.Intn(frags)
	}
	compiled, err := partition.FromVertexAssignment(g, assign, frags)
	if err != nil {
		t.Fatal(err)
	}
	built := partition.NewEmpty(g, frags)
	for _, e := range g.EdgeList() {
		built.AddEdge(rng.Intn(frags), e.Src, e.Dst)
	}
	for v := 0; v < g.NumVertices(); v++ {
		if len(built.Copies(graph.VertexID(v))) == 0 {
			built.AddVertex(v%frags, graph.VertexID(v))
		}
	}
	for _, form := range []struct {
		name string
		p    *partition.Partition
	}{{"compiled", compiled}, {"NewEmpty", built}} {
		for _, algo := range Algos() {
			m := Reference(algo)
			pool.SetDefaultWorkers(1)
			want := trackerBits(NewTracker(form.p, m))
			for _, w := range []int{4, runtime.NumCPU()} {
				pool.SetDefaultWorkers(w)
				if got := trackerBits(NewTracker(form.p, m)); !slices.Equal(got, want) {
					t.Errorf("%s/%v: the tracker at %d workers differs from the one at 1", form.name, algo, w)
				}
			}
		}
	}
}

// trackerBits flattens everything a tracker answers — Comp, Comm and
// every Contribution — into float bits.
func trackerBits(tr *Tracker) []uint64 {
	p := tr.Partition()
	var bits []uint64
	for i := 0; i < p.NumFragments(); i++ {
		bits = append(bits, math.Float64bits(tr.Comp(i)), math.Float64bits(tr.Comm(i)))
		for v := 0; v < p.Graph().NumVertices(); v++ {
			bits = append(bits, math.Float64bits(tr.Contribution(i, graph.VertexID(v))))
		}
	}
	return bits
}

// Rebuild re-evaluates in the tracker's own storage; the result must be
// bit for bit a fresh NewTracker's, whatever the tracker went through
// before: here the composite builders' pattern, a tracker grown over a
// NewEmpty partition with light refreshes, then the partition compiled,
// mutated on its compiled base and compiled again.
func TestRebuildMatchesNewTracker(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 900, AvgDeg: 6, Exponent: 2.1, Directed: true, Seed: 33})
	const frags = 5
	edges := g.EdgeList()
	for _, algo := range Algos() {
		m := Reference(algo)
		rng := rand.New(rand.NewSource(34))
		p := partition.NewEmpty(g, frags)
		tr := NewTracker(p, m)
		for _, e := range edges[:len(edges)/2] {
			p.AddEdge(rng.Intn(frags), e.Src, e.Dst)
			tr.Refresh(e.Src)
		}
		check := func(label string) {
			t.Helper()
			tr.Rebuild()
			if !slices.Equal(trackerBits(tr), trackerBits(NewTracker(p, m))) {
				t.Fatalf("%v %s: the rebuilt tracker differs from a new one", algo, label)
			}
		}
		check("on the NewEmpty form")
		p.Compile()
		check("after the compile")
		for _, e := range edges[len(edges)/2:] {
			p.AddEdge(rng.Intn(frags), e.Src, e.Dst)
			tr.Refresh(e.Dst)
		}
		for k := 0; k < 200; k++ {
			e := edges[rng.Intn(len(edges))]
			p.RemoveArc(rng.Intn(frags), e.Src, e.Dst)
		}
		check("over an overlay on a compiled base")
		p.Compile()
		check("after the second compile")
	}
}

// tr2partition exposes the tracker's partition for the test; the
// tracker stores it unexported, so we reconstruct access via a helper
// method added for tests.
func tr2partition(tr *Tracker) *partition.Partition { return tr.Partition() }

func assertTrackerMatches(t *testing.T, tr *Tracker, p *partition.Partition, m CostModel, label string) {
	t.Helper()
	want := Evaluate(p, m)
	for i := range want {
		if math.Abs(tr.Comp(i)-want[i].Comp) > 1e-9*(1+math.Abs(want[i].Comp)) {
			t.Fatalf("%s: fragment %d comp drift: tracker %v, full %v", label, i, tr.Comp(i), want[i].Comp)
		}
		if math.Abs(tr.Comm(i)-want[i].Comm) > 1e-9*(1+math.Abs(want[i].Comm)) {
			t.Fatalf("%s: fragment %d comm drift: tracker %v, full %v", label, i, tr.Comm(i), want[i].Comm)
		}
	}
}

func TestTrackerCommAt(t *testing.T) {
	g := buildG1(t)
	p := fig1bPartition(t, g)
	tr := NewTracker(p, CostModel{H: Zero, G: Func(func(x Vars) float64 { return 1 + x[Repl] })})
	// t2 (id 6) has one mirror: g = 2 wherever evaluated.
	if got := tr.CommAt(0, 6); got != 2 {
		t.Fatalf("CommAt = %v", got)
	}
	// s5 (id 4) is only in F1; probing at F0 yields 0.
	if got := tr.CommAt(0, 4); got != 0 {
		t.Fatalf("CommAt for absent copy = %v", got)
	}
}

func TestHypotheticalComp(t *testing.T) {
	g := buildG1(t)
	p := fig1bPartition(t, g)
	tr := NewTracker(p, Reference(CN))
	got := tr.HypotheticalComp(6, 4, 0, 0, false)
	want := 9.23e-5*4*4 + 1.04e-6*4 + 1.02e-6
	if math.Abs(got-want) > 1e-15 {
		t.Fatalf("HypotheticalComp = %v, want %v", got, want)
	}
}
