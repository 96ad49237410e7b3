package graph

import (
	"bufio"
	"fmt"
	"io"
)

// WriteEdgeList writes g as a text edge list: a header line
// "# vertices N directed|undirected" followed by one "src dst" pair
// per stored arc (for undirected graphs only arcs with src <= dst are
// written, so a round trip through ParallelReadEdgeListStreaming
// reproduces the graph).
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	kind := "directed"
	if g.Undirected() {
		kind = "undirected"
	}
	if _, err := fmt.Fprintf(bw, "# vertices %d %s\n", g.NumVertices(), kind); err != nil {
		return err
	}
	var werr error
	g.Edges(func(s, d VertexID) bool {
		if g.Undirected() && s > d {
			return true
		}
		if _, err := fmt.Fprintf(bw, "%d %d\n", s, d); err != nil {
			werr = err
			return false
		}
		return true
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

// maxDeclaredVertices caps the vertex count a header may declare, or
// the ids of a headerless input imply, so a corrupt or hostile input
// cannot demand huge allocations up front.
const maxDeclaredVertices = 1 << 28

// headerError is the edge-list header rule: the "# vertices N kind"
// line may appear at most once, and only before the first edge line.
// headerLine and firstEdge are the lines of an earlier header and of
// the first edge, 0 when there was none.
func headerError(lineNo, headerLine, firstEdge int) error {
	switch {
	case headerLine > 0:
		return fmt.Errorf("graph: line %d: second '# vertices' header (the first is line %d)", lineNo, headerLine)
	case firstEdge > 0:
		return fmt.Errorf("graph: line %d: '# vertices' header after the first edge (line %d)", lineNo, firstEdge)
	}
	return nil
}
