package graph

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func mustGraph(t *testing.T, n int, edges []Edge, undirected bool) *Graph {
	t.Helper()
	g, err := FromEdges(n, edges, undirected)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return g
}

func TestEmptyGraph(t *testing.T) {
	g := mustGraph(t, 0, nil, false)
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph reports %d vertices %d edges", g.NumVertices(), g.NumEdges())
	}
	if g.AvgDegree() != 0 {
		t.Fatalf("empty graph AvgDegree = %v", g.AvgDegree())
	}
}

func TestBuilderDedupAndLoops(t *testing.T) {
	edges := []Edge{{0, 1}, {0, 1}, {1, 1}, {1, 2}, {2, 0}}
	g := mustGraph(t, 3, edges, false)
	if g.NumEdges() != 3 {
		t.Fatalf("expected 3 arcs after dedup+loop drop, got %d", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) || !g.HasEdge(2, 0) {
		t.Fatal("missing expected arcs")
	}
	if g.HasEdge(1, 1) {
		t.Fatal("self loop survived")
	}
}

func TestKeepSelfLoops(t *testing.T) {
	b := NewBuilder(2).KeepSelfLoops()
	b.AddEdge(0, 0)
	b.AddEdge(0, 1)
	g := b.MustBuild()
	if !g.HasEdge(0, 0) {
		t.Fatal("self loop not retained with KeepSelfLoops")
	}
}

func TestDegrees(t *testing.T) {
	edges := []Edge{{0, 1}, {0, 2}, {1, 2}, {3, 2}}
	g := mustGraph(t, 4, edges, false)
	cases := []struct {
		v       VertexID
		in, out int
	}{
		{0, 0, 2}, {1, 1, 1}, {2, 3, 0}, {3, 0, 1},
	}
	for _, c := range cases {
		if got := g.InDegree(c.v); got != c.in {
			t.Errorf("InDegree(%d) = %d, want %d", c.v, got, c.in)
		}
		if got := g.OutDegree(c.v); got != c.out {
			t.Errorf("OutDegree(%d) = %d, want %d", c.v, got, c.out)
		}
	}
	if got := g.AvgDegree(); got != 1.0 {
		t.Errorf("AvgDegree = %v, want 1.0", got)
	}
}

func TestUndirectedSymmetrisation(t *testing.T) {
	g := mustGraph(t, 3, []Edge{{0, 1}, {1, 2}}, true)
	if g.NumEdges() != 4 {
		t.Fatalf("undirected graph should store 4 arcs, has %d", g.NumEdges())
	}
	if g.NumUndirectedEdges() != 2 {
		t.Fatalf("NumUndirectedEdges = %d, want 2", g.NumUndirectedEdges())
	}
	if !g.HasEdge(1, 0) || !g.HasEdge(2, 1) {
		t.Fatal("reverse arcs missing")
	}
	if g.Degree(1) != 2 {
		t.Fatalf("Degree(1) = %d, want 2", g.Degree(1))
	}
}

func TestSymmetrize(t *testing.T) {
	g := mustGraph(t, 3, []Edge{{0, 1}, {1, 2}, {2, 1}}, false)
	u := Symmetrize(g)
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
	if !u.Undirected() {
		t.Fatal("Symmetrize result not marked undirected")
	}
	if u.NumUndirectedEdges() != 2 {
		t.Fatalf("NumUndirectedEdges = %d, want 2", u.NumUndirectedEdges())
	}
}

func TestInOutConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 200
	b := NewBuilder(n)
	for i := 0; i < 2000; i++ {
		b.AddEdge(VertexID(rng.Intn(n)), VertexID(rng.Intn(n)))
	}
	g := b.MustBuild()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every arc visible via out-adjacency must appear in the
	// destination's in-adjacency, and the totals must agree.
	var outTotal, inTotal int
	for v := 0; v < n; v++ {
		outTotal += g.OutDegree(VertexID(v))
		inTotal += g.InDegree(VertexID(v))
		for _, w := range g.OutNeighbors(VertexID(v)) {
			found := false
			for _, u := range g.InNeighbors(w) {
				if u == VertexID(v) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("arc (%d,%d) missing from in-adjacency", v, w)
			}
		}
	}
	if outTotal != inTotal || int64(outTotal) != g.NumEdges() {
		t.Fatalf("degree totals disagree: out=%d in=%d m=%d", outTotal, inTotal, g.NumEdges())
	}
}

func TestEdgeRangeError(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 5)
	if _, err := b.Build(); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestEdgeListRoundTripText(t *testing.T) {
	for _, undirected := range []bool{false, true} {
		g := mustGraph(t, 5, []Edge{{0, 1}, {1, 2}, {3, 4}, {4, 0}}, undirected)
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !graphsEqual(g, g2) {
			t.Fatalf("text round trip mismatch (undirected=%v)", undirected)
		}
	}
}

func TestEdgeListReaderSNAPStyle(t *testing.T) {
	in := "% comment\n# some header\n0 1\n2\t3\n\n1 2\n"
	g, err := ReadEdgeList(bytes.NewBufferString(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 || g.NumEdges() != 3 {
		t.Fatalf("got %v", g)
	}
}

func TestEdgeListReaderErrors(t *testing.T) {
	for _, in := range []string{"0\n", "a b\n", "0 x\n"} {
		if _, err := ReadEdgeList(bytes.NewBufferString(in)); err == nil {
			t.Errorf("input %q: expected parse error", in)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, undirected := range []bool{false, true} {
		b := NewBuilder(50)
		if undirected {
			b = NewUndirectedBuilder(50)
		}
		for i := 0; i < 300; i++ {
			b.AddEdge(VertexID(rng.Intn(50)), VertexID(rng.Intn(50)))
		}
		g := b.MustBuild()
		var buf bytes.Buffer
		if err := WriteFlatBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadFlatBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !graphsEqual(g, g2) {
			t.Fatalf("binary round trip mismatch (undirected=%v)", undirected)
		}
	}
}

func TestBinaryBadMagic(t *testing.T) {
	if _, err := ReadFlatBinary(bytes.NewBuffer(make([]byte, 32))); err == nil {
		t.Fatal("expected bad-magic error")
	}
}

func graphsEqual(a, b *Graph) bool {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() || a.Undirected() != b.Undirected() {
		return false
	}
	return reflect.DeepEqual(a.EdgeList(), b.EdgeList())
}

func TestConnectedComponents(t *testing.T) {
	g := mustGraph(t, 7, []Edge{{0, 1}, {1, 2}, {3, 4}, {5, 6}, {6, 5}}, false)
	labels, count := ConnectedComponents(g)
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Fatal("component {0,1,2} split")
	}
	if labels[3] != labels[4] || labels[3] == labels[0] {
		t.Fatal("component {3,4} wrong")
	}
	if labels[5] != labels[6] || labels[5] == labels[3] {
		t.Fatal("component {5,6} wrong")
	}
}

func TestMaxDegreeVertex(t *testing.T) {
	g := mustGraph(t, 4, []Edge{{0, 1}, {2, 1}, {3, 1}, {1, 0}}, false)
	if got := MaxDegreeVertex(g); got != 1 {
		t.Fatalf("MaxDegreeVertex = %d, want 1", got)
	}
}

// Property: for any random arc set, building a graph preserves exactly
// the distinct non-loop arcs.
func TestQuickBuildPreservesArcs(t *testing.T) {
	f := func(raw []uint16) bool {
		const n = 32
		want := map[Edge]bool{}
		b := NewBuilder(n)
		for i := 0; i+1 < len(raw); i += 2 {
			e := Edge{VertexID(raw[i] % n), VertexID(raw[i+1] % n)}
			b.AddEdge(e.Src, e.Dst)
			if e.Src != e.Dst {
				want[e] = true
			}
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		if int(g.NumEdges()) != len(want) {
			return false
		}
		ok := true
		g.Edges(func(s, d VertexID) bool {
			if !want[Edge{s, d}] {
				ok = false
				return false
			}
			return true
		})
		return ok && g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: adjacency lists are sorted so HasEdge agrees with a linear
// scan.
func TestQuickHasEdge(t *testing.T) {
	f := func(raw []uint16, qs, qd uint16) bool {
		const n = 24
		b := NewBuilder(n)
		for i := 0; i+1 < len(raw); i += 2 {
			b.AddEdge(VertexID(raw[i]%n), VertexID(raw[i+1]%n))
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		u, v := VertexID(qs%n), VertexID(qd%n)
		linear := false
		for _, w := range g.OutNeighbors(u) {
			if w == v {
				linear = true
			}
		}
		return g.HasEdge(u, v) == linear
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeListSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := NewBuilder(40)
	for i := 0; i < 400; i++ {
		b.AddEdge(VertexID(rng.Intn(40)), VertexID(rng.Intn(40)))
	}
	g := b.MustBuild()
	el := g.EdgeList()
	if !sort.SliceIsSorted(el, func(i, j int) bool {
		if el[i].Src != el[j].Src {
			return el[i].Src < el[j].Src
		}
		return el[i].Dst < el[j].Dst
	}) {
		t.Fatal("EdgeList not sorted")
	}
}
