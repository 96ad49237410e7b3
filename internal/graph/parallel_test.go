package graph

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"adp/internal/pool"
)

// graphBitwiseEqual compares every CSR array byte for byte.
func graphBitwiseEqual(t *testing.T, want, got *Graph, label string) {
	t.Helper()
	if want.n != got.n || want.undirected != got.undirected {
		t.Fatalf("%s: shape %v vs %v", label, want, got)
	}
	if !slices.Equal(want.outIndex, got.outIndex) || !slices.Equal(want.inIndex, got.inIndex) {
		t.Fatalf("%s: index arrays differ", label)
	}
	if !slices.Equal(want.outAdj, got.outAdj) || !slices.Equal(want.inAdj, got.inAdj) {
		t.Fatalf("%s: adjacency arrays differ", label)
	}
}

// randomEdges draws a messy edge multiset: duplicates, self loops,
// skewed endpoints.
func randomEdges(n, m int, seed int64) []Edge {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, 0, m)
	for i := 0; i < m; i++ {
		u := VertexID(rng.Intn(n))
		v := VertexID(rng.Intn(n))
		if rng.Intn(10) == 0 {
			v = u // deliberate self loop
		}
		edges = append(edges, Edge{u, v})
		if rng.Intn(5) == 0 {
			edges = append(edges, Edge{u, v}) // deliberate duplicate
		}
	}
	return edges
}

// refCSR is the independent oracle for the one CSR build: expand
// (loops dropped, reverse arcs when undirected), sort, dedup, then
// bucket per vertex — the definition, with none of build's chunking.
func refCSR(n int, edges []Edge, undirected bool) *Graph {
	var arcs []Edge
	for _, e := range edges {
		if e.Src != e.Dst {
			arcs = append(arcs, e)
			if undirected {
				arcs = append(arcs, Edge{e.Dst, e.Src})
			}
		}
	}
	sort.Slice(arcs, func(i, j int) bool { return cmpEdge(arcs[i], arcs[j]) < 0 })
	arcs = slices.Compact(arcs)
	g := &Graph{n: n, undirected: undirected, outIndex: make([]int64, n+1), inIndex: make([]int64, n+1)}
	out, in := make([][]VertexID, n), make([][]VertexID, n)
	for _, e := range arcs {
		out[e.Src] = append(out[e.Src], e.Dst)
		in[e.Dst] = append(in[e.Dst], e.Src)
	}
	for v := 0; v < n; v++ {
		g.outAdj, g.inAdj = append(g.outAdj, out[v]...), append(g.inAdj, in[v]...)
		g.outIndex[v+1], g.inIndex[v+1] = int64(len(g.outAdj)), int64(len(g.inAdj))
	}
	return g
}

// TestFromEdgesParallelMatchesBuild: the sequential and chunk-parallel
// constructors must both be bitwise the reference CSR across worker
// counts, directions, and messy inputs.
func TestFromEdgesParallelMatchesBuild(t *testing.T) {
	workersSweep := []int{1, 4, runtime.NumCPU()}
	for _, undirected := range []bool{false, true} {
		for seed := int64(0); seed < 3; seed++ {
			edges := randomEdges(500, 4000, seed)
			want := refCSR(500, edges, undirected)
			seq, err := FromEdges(500, edges, undirected)
			if err != nil {
				t.Fatal(err)
			}
			graphBitwiseEqual(t, want, seq, "sequential undirected="+boolStr(undirected))
			for _, w := range workersSweep {
				pl := pool.New(w)
				got, err := FromEdgesParallel(500, edges, undirected, pl)
				pl.Close()
				if err != nil {
					t.Fatal(err)
				}
				graphBitwiseEqual(t, want, got, "undirected="+boolStr(undirected))
				if err := got.Validate(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

func boolStr(b bool) string {
	if b {
		return "true"
	}
	return "false"
}

// TestFromEdgesParallelRange pins the out-of-range error message to
// Builder.Build's.
func TestFromEdgesParallelRange(t *testing.T) {
	pl := pool.New(2)
	defer pl.Close()
	_, err := FromEdgesParallel(3, []Edge{{0, 1}, {2, 9}}, false, pl)
	if err == nil || !strings.Contains(err.Error(), "edge (2,9) out of range for n=3") {
		t.Fatalf("out-of-range edge not rejected: %v", err)
	}
}

// TestParallelReadEdgeListMatchesSequential: tiny chunk sizes force
// many parse chunks; every worker count must reproduce the sequential
// reader bitwise.
func TestParallelReadEdgeListMatchesSequential(t *testing.T) {
	for _, header := range []string{"# vertices 300 directed\n", "# vertices 300 undirected\n", ""} {
		var text bytes.Buffer
		text.WriteString(header)
		text.WriteString("% a comment line\n\n")
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 5000; i++ {
			s, d := rng.Intn(300), rng.Intn(300)
			text.WriteString(itoa(s) + " " + itoa(d) + "\n")
		}
		want, err := ReadEdgeList(bytes.NewReader(text.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 4, runtime.NumCPU()} {
			got, err := ParallelReadEdgeListStreaming(bytes.NewReader(text.Bytes()),
				LoadOptions{Workers: w, ChunkBytes: 512}, nil)
			if err != nil {
				t.Fatal(err)
			}
			graphBitwiseEqual(t, want, got, "workers="+itoa(w))
		}
	}
}

func itoa(x int) string {
	if x == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	for x > 0 {
		i--
		b[i] = byte('0' + x%10)
		x /= 10
	}
	return string(b[i:])
}

// TestParallelReadEdgeListErrors: parse failures keep exact global
// line attribution even when the offending line sits deep inside a
// later chunk.
func TestParallelReadEdgeListErrors(t *testing.T) {
	var text bytes.Buffer
	for i := 0; i < 200; i++ {
		text.WriteString("0 1\n")
	}
	text.WriteString("zz 1\n") // line 201
	_, err := ParallelReadEdgeListStreaming(bytes.NewReader(text.Bytes()), LoadOptions{Workers: 4, ChunkBytes: 128}, nil)
	if err == nil || !strings.Contains(err.Error(), "line 201") {
		t.Fatalf("error lost line attribution: %v", err)
	}
	_, err = ParallelReadEdgeListStreaming(strings.NewReader("# vertices 3 directed\n0 1\n1 9\n"),
		LoadOptions{Workers: 2, ChunkBytes: 8}, nil)
	if err == nil || !strings.Contains(err.Error(), "out of declared range") {
		t.Fatalf("range violation not rejected: %v", err)
	}
}

// streamRecorder checks the BuildStreaming consumer contract: Begin
// before any vertex, ids ascending and complete, stars matching the
// finished graph.
type streamRecorder struct {
	nv    int
	m     int64
	stars [][]VertexID
}

func (r *streamRecorder) Begin(nv int, m int64) {
	r.nv, r.m = nv, m
	r.stars = make([][]VertexID, 0, nv)
}

func (r *streamRecorder) Vertex(v VertexID, out []VertexID) {
	if int(v) != len(r.stars) {
		panic("stream out of order")
	}
	r.stars = append(r.stars, append([]VertexID(nil), out...))
}

// TestBuildStreamingConsumer: the stream must deliver exactly the
// finished graph's forward stars, in id order, with counts announced
// up front, at every worker count.
func TestBuildStreamingConsumer(t *testing.T) {
	edges := randomEdges(400, 3000, 5)
	want, err := FromEdges(400, edges, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 4, runtime.NumCPU()} {
		rec := &streamRecorder{}
		got, err := BuildStreaming(400, edges, false, LoadOptions{Workers: w}, rec)
		if err != nil {
			t.Fatal(err)
		}
		graphBitwiseEqual(t, want, got, "streamed")
		if rec.nv != want.NumVertices() || rec.m != want.NumEdges() {
			t.Fatalf("Begin announced (%d,%d), want (%d,%d)", rec.nv, rec.m, want.NumVertices(), want.NumEdges())
		}
		if len(rec.stars) != want.NumVertices() {
			t.Fatalf("streamed %d vertices of %d", len(rec.stars), want.NumVertices())
		}
		for v, star := range rec.stars {
			if !slices.Equal(star, want.OutNeighbors(VertexID(v))) {
				t.Fatalf("vertex %d: streamed star differs from final graph", v)
			}
		}
	}
}

// TestEdgeListHeaderRule: both readers accept a "# vertices" header at
// most once and only before the first edge line, and reject anything
// else with a line-numbered error; SNAP-style '#' comments anywhere and
// WriteEdgeList output are unaffected. Tiny chunks put the header and
// the edges in different parallel parse chunks.
func TestEdgeListHeaderRule(t *testing.T) {
	var written bytes.Buffer
	if err := WriteEdgeList(&written, mustGraph(t, 5, []Edge{{0, 1}, {3, 4}}, true)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, input, wantErr string
	}{
		{"header after out-of-range edge", "# vertices 3 directed\n0 5\n# vertices 10 directed\n", "line"},
		{"header after edge", "0 1\n# vertices 4 undirected\n", "line 2: '# vertices' header after the first edge (line 1)"},
		{"header after edge, later chunk", "0 1\n1 2\n2 3\n# vertices 9 directed\n", "line 4: '# vertices' header after the first edge (line 1)"},
		{"second header", "# vertices 4 directed\n# vertices 4 directed\n0 1\n", "line 2: second '# vertices' header (the first is line 1)"},
		{"second header, later chunk", "# vertices 4 directed\n0 1\n% c\n# vertices 4 undirected\n", "line 4: second '# vertices' header (the first is line 1)"},
		{"SNAP comments", "# Nodes: 4 Edges: 2\n# FromNodeId ToNodeId\n0 1\n# trailing comment\n2 3\n", ""},
		{"header then comments", "% c\n# vertices 6 directed\n# note\n0 1\n# more\n", ""},
		{"WriteEdgeList output", written.String(), ""},
	} {
		_, serr := ReadEdgeList(strings.NewReader(c.input))
		_, perr := ParallelReadEdgeListStreaming(strings.NewReader(c.input), LoadOptions{Workers: 2, ChunkBytes: 4}, nil)
		for reader, err := range map[string]error{"ReadEdgeList": serr, "ParallelReadEdgeListStreaming": perr} {
			switch {
			case c.wantErr == "" && err != nil:
				t.Errorf("%s: %s rejected: %v", c.name, reader, err)
			case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
				t.Errorf("%s: %s = %v, want an error containing %q", c.name, reader, err, c.wantErr)
			}
		}
	}
}

// FuzzParallelReadEdgeList: the chunked parallel parser must never
// panic, must accept exactly the inputs the sequential reader accepts,
// and must then produce the identical graph.
func FuzzParallelReadEdgeList(f *testing.F) {
	f.Add("# vertices 4 directed\n0 1\n1 2\n")
	f.Add("# vertices 3 undirected\n0 1\n")
	f.Add("% comment\n5 5\n1 2\n")
	f.Add("0 1\n\n\n2 3")
	f.Add("")
	f.Fuzz(func(t *testing.T, input string) {
		got, perr := ParallelReadEdgeListStreaming(strings.NewReader(input), LoadOptions{Workers: 3, ChunkBytes: 16}, nil)
		want, serr := ReadEdgeList(strings.NewReader(input))
		if (perr == nil) != (serr == nil) {
			t.Fatalf("readers disagree: parallel %v, sequential %v", perr, serr)
		}
		if serr == nil {
			graphBitwiseEqual(t, want, got, "fuzz")
		}
	})
}
