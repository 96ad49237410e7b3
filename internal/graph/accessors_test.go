package graph

import (
	"strings"
	"testing"
)

func TestGraphString(t *testing.T) {
	g := mustGraph(t, 3, []Edge{{0, 1}}, false)
	if s := g.String(); !strings.Contains(s, "directed") || !strings.Contains(s, "|V|=3") {
		t.Fatalf("String() = %q", s)
	}
	u := mustGraph(t, 2, []Edge{{0, 1}}, true)
	if s := u.String(); !strings.Contains(s, "undirected") {
		t.Fatalf("String() = %q", s)
	}
}

func TestNumUndirectedEdgesDirectedGraph(t *testing.T) {
	g := mustGraph(t, 3, []Edge{{0, 1}, {1, 2}}, false)
	if got := g.NumUndirectedEdges(); got != 2 {
		t.Fatalf("directed NumUndirectedEdges = %d, want arc count", got)
	}
}
