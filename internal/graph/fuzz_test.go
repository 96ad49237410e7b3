package graph

import (
	"bytes"
	"testing"
)

// FuzzReadEdgeList: arbitrary text input must never panic, and any
// successfully parsed graph must satisfy the CSR invariants and
// round-trip through the writer.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("# vertices 4 directed\n0 1\n1 2\n")
	f.Add("# vertices 3 undirected\n0 1\n")
	f.Add("% comment\n5 5\n1 2\n")
	f.Add("0 1\n\n\n2 3")
	f.Add("")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadEdgeList(bytes.NewBufferString(input))
		if err != nil {
			return
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("parsed graph invalid: %v", verr)
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		g2, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("round trip parse failed: %v", err)
		}
		if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed shape: %v vs %v", g, g2)
		}
	})
}
