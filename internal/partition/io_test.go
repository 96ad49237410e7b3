package partition

import (
	"bytes"
	"testing"

	"adp/internal/gen"
	"adp/internal/graph"
)

func TestPartitionWriteReadRoundTrip(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 400, AvgDeg: 5, Exponent: 2.2, Directed: true, Seed: 13})
	assign := make([]int, g.NumVertices())
	for v := range assign {
		assign[v] = (v * 3) % 4
	}
	p, err := FromVertexAssignment(g, assign, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Perturb masters/owners so the round trip covers non-defaults.
	for v := 0; v < g.NumVertices(); v += 7 {
		cs := p.Copies(graph.VertexID(v))
		if len(cs) > 1 {
			_ = p.SetMaster(graph.VertexID(v), int(cs[len(cs)-1]))
		}
	}
	var buf bytes.Buffer
	if err := Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	q, err := Read(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if p.Fragment(i).NumArcs() != q.Fragment(i).NumArcs() ||
			p.Fragment(i).NumVertices() != q.Fragment(i).NumVertices() {
			t.Fatalf("fragment %d shape changed in round trip", i)
		}
	}
	for v := 0; v < g.NumVertices(); v++ {
		vid := graph.VertexID(v)
		if p.Master(vid) != q.Master(vid) {
			t.Fatalf("master of %d changed: %d -> %d", v, p.Master(vid), q.Master(vid))
		}
		if p.Owner(vid) != q.Owner(vid) {
			t.Fatalf("owner of %d changed", v)
		}
	}
}

func TestPartitionReadRejectsWrongGraph(t *testing.T) {
	g := gen.ErdosRenyi(100, 3, true, 1)
	p, err := FromVertexAssignment(g, make([]int, 100), 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	other := gen.ErdosRenyi(101, 3, true, 2)
	if _, err := Read(bytes.NewReader(buf.Bytes()), other); err == nil {
		t.Fatal("mismatched vertex count accepted")
	}
}

func TestPartitionReadBadMagic(t *testing.T) {
	g := gen.ErdosRenyi(10, 2, true, 1)
	if _, err := Read(bytes.NewReader(make([]byte, 64)), g); err == nil {
		t.Fatal("bad magic accepted")
	}
}
