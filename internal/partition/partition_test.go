package partition

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"adp/internal/gen"
	"adp/internal/graph"
	"adp/internal/pool"
)

func TestFigure1bIsEdgeCut(t *testing.T) {
	g := figure1G1(t)
	p := figure1bPartition(t, g)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if !p.IsEdgeCut() {
		t.Fatal("Fig 1(b) partition should be an edge-cut")
	}
	if p.IsVertexCut() {
		t.Fatal("Fig 1(b) partition replicates cut arcs, cannot be a vertex-cut")
	}
}

// Example 5: for Fig 1(b), fv = 1, fe = 17/13, and the max/avg edge
// ratio is 18/17 (the paper reports balance as max/avg; we report
// λ = max/avg − 1 per the formal definition).
func TestFigure1bMetrics(t *testing.T) {
	g := figure1G1(t)
	p := figure1bPartition(t, g)
	m := p.ComputeMetrics()
	if math.Abs(m.FV-1.0) > 1e-12 {
		t.Errorf("fv = %v, want 1", m.FV)
	}
	if math.Abs(m.FE-17.0/13.0) > 1e-12 {
		t.Errorf("fe = %v, want 17/13", m.FE)
	}
	if math.Abs((1+m.LambdaE)-18.0/17.0) > 1e-12 {
		t.Errorf("1+λe = %v, want 18/17", 1+m.LambdaE)
	}
	if math.Abs(m.LambdaV) > 1e-12 {
		t.Errorf("λv = %v, want 0 (both fragments own 5 vertices)", m.LambdaV)
	}
}

// Example 1: the workload of CN on Fig 1(b) is 10 vs 2 (5× skew)
// despite perfect vertex/edge balance, and 6 vs 6 under Fig 1(c).
func TestFigure1CNWorkloadSkew(t *testing.T) {
	g := figure1G1(t)
	assignB := []int{0, 0, 1, 1, 1, 0, 0, 0, 1, 1}
	if w1, w2 := cnWorkload(g, assignB, 0), cnWorkload(g, assignB, 1); w1 != 10 || w2 != 2 {
		t.Errorf("Fig 1(b) CN workload = (%d,%d), want (10,2)", w1, w2)
	}
	assignC := []int{0, 0, 1, 1, 1, 1, 0, 1, 1, 1}
	if w1, w2 := cnWorkload(g, assignC, 0), cnWorkload(g, assignC, 1); w1 != 6 || w2 != 6 {
		t.Errorf("Fig 1(c) CN workload = (%d,%d), want (6,6)", w1, w2)
	}
}

func TestFigure1cMetrics(t *testing.T) {
	g := figure1G1(t)
	p := figure1cPartition(t, g)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	m := p.ComputeMetrics()
	// The paper's figure reports fe = 17/13; our reconstruction of the
	// edge set (which matches the workload numbers of Example 1
	// exactly) replicates 5 cut arcs under this assignment, so 18/13.
	if math.Abs(m.FE-18.0/13.0) > 1e-12 {
		t.Errorf("fe = %v, want 18/13", m.FE)
	}
	// Example 5 reports max/avg vertex ratio 7/5 for Fig 1(c).
	if math.Abs((1+m.LambdaV)-7.0/5.0) > 1e-12 {
		t.Errorf("1+λv = %v, want 7/5", 1+m.LambdaV)
	}
}

func TestStatusClassification(t *testing.T) {
	g := figure1G1(t)
	p := figure1bPartition(t, g)
	// t2 is owned by F0 and has in-edges from s3, s4 (owned by F1),
	// so t2's copy in F0 is the e-cut node and F1 holds a dummy.
	if s := p.Status(0, t2); s != ECutNode {
		t.Errorf("t2 in F0 = %v, want e-cut", s)
	}
	if s := p.Status(1, t2); s != DummyNode {
		t.Errorf("t2 in F1 = %v, want dummy", s)
	}
	// s5 only touches F1.
	if s := p.Status(1, s5); s != ECutNode {
		t.Errorf("s5 in F1 = %v, want e-cut", s)
	}
	if s := p.Status(0, s5); s != Absent {
		t.Errorf("s5 in F0 = %v, want absent", s)
	}
	if p.Replication(t2) != 1 || p.Replication(s5) != 0 {
		t.Errorf("replication: t2=%d s5=%d", p.Replication(t2), p.Replication(s5))
	}
}

func TestVertexCutConstruction(t *testing.T) {
	g := figure1G1(t)
	// Route each arc by its target parity.
	p, err := FromEdgeAssignment(g, func(s, d graph.VertexID) int { return int(d) % 2 }, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if !p.IsVertexCut() {
		t.Fatal("edge assignment must yield a vertex-cut")
	}
	m := p.ComputeMetrics()
	if math.Abs(m.FE-1.0) > 1e-12 {
		t.Errorf("vertex-cut fe = %v, want 1", m.FE)
	}
	// s1 has out-edges to t1(5,odd),t2(6,even),t3(7,odd): present in
	// both fragments and v-cut.
	if !p.IsBorder(s1) {
		t.Error("s1 should be border")
	}
	if s := p.Status(0, s1); s != VCutNode {
		t.Errorf("s1 in F0 = %v, want v-cut", s)
	}
	if s := p.Status(1, s1); s != VCutNode {
		t.Errorf("s1 in F1 = %v, want v-cut", s)
	}
}

func TestUndirectedEdgeCoLocation(t *testing.T) {
	g, err := graph.FromEdgesParallel(4, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}}, true, pool.Serial())
	if err != nil {
		t.Fatal(err)
	}
	p, err := FromEdgeAssignment(g, func(s, d graph.VertexID) int { return int(s) % 2 }, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		f := p.Fragment(i)
		f.Vertices(func(v graph.VertexID, adj *Adj) {
			for _, w := range adj.Out {
				if !f.HasArc(w, v) {
					t.Errorf("fragment %d has (%d,%d) without its mirror", i, v, w)
				}
			}
		})
	}
}

func TestAddRemoveArcMaintainsIndexes(t *testing.T) {
	g := figure1G1(t)
	p := NewEmpty(g, 2)
	p.AddArc(0, s1, t1)
	p.AddArc(0, s1, t2)
	p.AddArc(1, s1, t3)
	if p.Replication(s1) != 1 {
		t.Fatalf("s1 replication = %d, want 1", p.Replication(s1))
	}
	if p.Master(s1) != 0 {
		t.Fatalf("s1 master = %d, want 0 (first placement)", p.Master(s1))
	}
	// Removing s1's only arc in fragment 1 drops the copy and the
	// mirror count.
	if !p.RemoveArc(1, s1, t3) {
		t.Fatal("RemoveArc reported arc absent")
	}
	if p.Replication(s1) != 0 || p.Fragment(1).Has(s1) {
		t.Fatal("fragment 1 copy of s1 should be gone")
	}
	// Double add is a no-op.
	p.AddArc(0, s1, t1)
	if p.Fragment(0).NumArcs() != 2 {
		t.Fatalf("duplicate AddArc changed arc count: %d", p.Fragment(0).NumArcs())
	}
	// Master falls back when the master copy disappears.
	p.AddArc(1, s2, t1)
	p.AddArc(0, s2, t2)
	if p.Master(s2) != 1 {
		t.Fatalf("s2 master = %d, want 1", p.Master(s2))
	}
	p.RemoveArc(1, s2, t1)
	if p.Master(s2) != 0 {
		t.Fatalf("s2 master should fall back to 0, got %d", p.Master(s2))
	}
}

func TestRemoveVertex(t *testing.T) {
	g := figure1G1(t)
	p := figure1bPartition(t, g)
	p.RemoveVertex(0, t2)
	if p.Fragment(0).Has(t2) {
		t.Fatal("t2 still present in F0")
	}
	// The arcs into t2 from F0's sources are gone from F0 but F1
	// still holds its replicas, so t2 survives in F1.
	if !p.Fragment(1).Has(t2) {
		t.Fatal("t2 lost from F1")
	}
}

func TestSetMaster(t *testing.T) {
	g := figure1G1(t)
	p := figure1bPartition(t, g)
	if err := p.SetMaster(t2, 1); err != nil {
		t.Fatal(err)
	}
	if p.Master(t2) != 1 {
		t.Fatal("SetMaster did not take effect")
	}
	if err := p.SetMaster(s5, 0); err == nil {
		t.Fatal("SetMaster to a fragment without a copy must fail")
	}
}

func TestBorderNodes(t *testing.T) {
	g := figure1G1(t)
	p := figure1bPartition(t, g)
	b0 := p.BorderNodes(0)
	// F0's border: dummies s3,s4 plus its owned targets t2,t3 that F1
	// replicates via cut arcs.
	want := map[graph.VertexID]bool{s3: true, s4: true, t2: true, t3: true}
	if len(b0) != len(want) {
		t.Fatalf("border of F0 = %v", b0)
	}
	for _, v := range b0 {
		if !want[v] {
			t.Fatalf("unexpected border vertex %d", v)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	g := figure1G1(t)
	p := figure1bPartition(t, g)
	q := p.Clone()
	q.RemoveArc(0, s1, t1)
	if !p.Fragment(0).HasArc(s1, t1) {
		t.Fatal("mutating the clone leaked into the original")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := q.Validate(); err == nil {
		// Removing a unique arc breaks coverage; expected.
		t.Fatal("clone should fail validation after dropping a unique arc")
	}
}

func TestIsolatedVertexPlacement(t *testing.T) {
	g, err := graph.FromEdgesParallel(3, []graph.Edge{{Src: 0, Dst: 1}}, false, pool.Serial())
	if err != nil {
		t.Fatal(err)
	}
	p, err := FromVertexAssignment(g, []int{0, 0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if !p.Fragment(1).Has(2) {
		t.Fatal("isolated vertex 2 not placed")
	}
}

func TestFromVertexAssignmentErrors(t *testing.T) {
	g := figure1G1(t)
	if _, err := FromVertexAssignment(g, []int{0}, 2); err == nil {
		t.Fatal("short assignment accepted")
	}
	bad := make([]int, 10)
	bad[3] = 9
	if _, err := FromVertexAssignment(g, bad, 2); err == nil {
		t.Fatal("out-of-range fragment accepted")
	}
	if _, err := FromEdgeAssignment(g, func(s, d graph.VertexID) int { return 5 }, 2); err == nil {
		t.Fatal("out-of-range edge assignment accepted")
	}
}

func TestBalanceFactor(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{0, 0}, 0},
		{[]float64{4, 4, 4}, 0},
		{[]float64{9, 8}, 9.0/8.5 - 1},
		{[]float64{10, 0}, 1},
	}
	for _, c := range cases {
		if got := BalanceFactor(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("BalanceFactor(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// Property: any vertex assignment over a random graph produces a valid
// edge-cut partition with fv counting every vertex exactly once.
func TestQuickVertexAssignmentAlwaysEdgeCut(t *testing.T) {
	f := func(seed int64, nFrag uint8) bool {
		n := int(nFrag)%4 + 2
		g := gen.ErdosRenyi(60, 3, true, seed)
		rng := rand.New(rand.NewSource(seed + 1))
		assign := make([]int, g.NumVertices())
		for i := range assign {
			assign[i] = rng.Intn(n)
		}
		p, err := FromVertexAssignment(g, assign, n)
		if err != nil || p.Validate() != nil {
			return false
		}
		if !p.IsEdgeCut() {
			return false
		}
		total := 0
		for i := 0; i < n; i++ {
			total += p.NonDummyCount(i)
		}
		return total == g.NumVertices()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: any edge assignment produces a valid vertex-cut with
// fe = 1 and arc-disjoint fragments.
func TestQuickEdgeAssignmentAlwaysVertexCut(t *testing.T) {
	f := func(seed int64, nFrag uint8) bool {
		n := int(nFrag)%4 + 2
		g := gen.ErdosRenyi(60, 3, true, seed)
		p, err := FromEdgeAssignment(g, func(s, d graph.VertexID) int {
			return int(s^d) % n
		}, n)
		if err != nil || p.Validate() != nil {
			return false
		}
		if !p.IsVertexCut() {
			return false
		}
		return int64(p.StorageArcs()) == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: status partitioning is total — every copy is exactly one
// of e-cut, v-cut or dummy, and a vertex has at most one e-cut copy.
func TestQuickStatusTotal(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.ErdosRenyi(50, 2.5, true, seed)
		p, err := FromEdgeAssignment(g, func(s, d graph.VertexID) int { return int(d) % 3 }, 3)
		if err != nil {
			return false
		}
		for v := 0; v < g.NumVertices(); v++ {
			ecuts := 0
			for i := 0; i < 3; i++ {
				switch p.Status(i, graph.VertexID(v)) {
				case ECutNode:
					ecuts++
				case Absent:
					if p.Fragment(i).Has(graph.VertexID(v)) {
						return false
					}
				}
			}
			if ecuts > 1 {
				return false
			}
			if p.IsECut(graph.VertexID(v)) != (ecuts == 1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
