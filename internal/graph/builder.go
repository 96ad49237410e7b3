package graph

import "adp/internal/pool"

// Builder accumulates edges and constructs an immutable Graph.
// Builders are not safe for concurrent use.
type Builder struct {
	n          int
	edges      []Edge
	undirected bool
	keepLoops  bool
}

// NewBuilder returns a Builder for a directed graph over n vertices.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// NewUndirectedBuilder returns a Builder that symmetrises every added
// edge, producing a Graph with Undirected() == true.
func NewUndirectedBuilder(n int) *Builder {
	return &Builder{n: n, undirected: true}
}

// KeepSelfLoops makes Build retain self loops, which are dropped by
// default (none of the paper's algorithms are defined on them).
func (b *Builder) KeepSelfLoops() *Builder {
	b.keepLoops = true
	return b
}

// AddEdge records the arc (u,v); for undirected builders the reverse
// arc is implied. Duplicate edges are removed at Build time.
func (b *Builder) AddEdge(u, v VertexID) {
	b.edges = append(b.edges, Edge{u, v})
}

// serial runs the sequential constructors' builds on the caller's
// goroutine; a one-worker pool starts no helpers, so sharing it is safe.
var serial = pool.Serial()

// Build constructs the Graph. It deduplicates edges, drops self loops
// (unless KeepSelfLoops), sorts adjacency lists, and verifies vertex
// ranges.
func (b *Builder) Build() (*Graph, error) {
	return build(b.n, b.edges, b.undirected, b.keepLoops, serial, nil)
}

// MustBuild is Build that panics on error; for tests and generators
// whose inputs are correct by construction.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func dedupSorted(arcs []Edge) []Edge {
	if len(arcs) == 0 {
		return arcs
	}
	out := arcs[:1]
	for _, e := range arcs[1:] {
		if last := out[len(out)-1]; last != e {
			out = append(out, e)
		}
	}
	return out
}

// FromEdges is a convenience constructor over an explicit edge list.
func FromEdges(n int, edges []Edge, undirected bool) (*Graph, error) {
	return build(n, edges, undirected, false, serial, nil)
}

// Symmetrize returns the undirected version of g: every arc gains its
// reverse and Undirected() reports true.
func Symmetrize(g *Graph) *Graph {
	b := NewUndirectedBuilder(g.NumVertices())
	g.Edges(func(s, d VertexID) bool {
		b.AddEdge(s, d)
		return true
	})
	return b.MustBuild()
}
