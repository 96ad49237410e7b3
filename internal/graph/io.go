package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteEdgeList writes g as a text edge list: a header line
// "# vertices N directed|undirected" followed by one "src dst" pair
// per stored arc (for undirected graphs only arcs with src <= dst are
// written, so a round trip reproduces the graph).
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

// maxDeclaredVertices caps the vertex count a header may declare, so a
// corrupt or hostile input cannot demand huge allocations up front.
const maxDeclaredVertices = 1 << 28

// ReadEdgeList parses the format produced by WriteEdgeList. Lines
// starting with '%' or additional '#' lines are skipped, so common
// SNAP-style edge lists also parse (pass explicit n via the header or
// the maximum seen vertex + 1 is used). Malformed input fails with the
// offending line number; errors wrap the underlying parse/IO cause.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	n := -1
	undirected := false
	var edges []Edge
	maxV := VertexID(0)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 4 && fields[1] == "vertices" {
				v, err := strconv.Atoi(fields[2])
				if err != nil {
					return nil, fmt.Errorf("graph: line %d: bad header vertex count: %w", lineNo, err)
				}
				if v < 0 || v > maxDeclaredVertices {
					return nil, fmt.Errorf("graph: line %d: header declares %d vertices (cap %d)", lineNo, v, maxDeclaredVertices)
				}
				n = v
				undirected = fields[3] == "undirected"
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: expected 'src dst'", lineNo)
		}
		s, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad src: %w", lineNo, err)
		}
		d, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad dst: %w", lineNo, err)
		}
		if n >= 0 && (s >= uint64(n) || d >= uint64(n)) {
			return nil, fmt.Errorf("graph: line %d: edge (%d,%d) out of declared range [0,%d)", lineNo, s, d, n)
		}
		e := Edge{VertexID(s), VertexID(d)}
		if e.Src > maxV {
			maxV = e.Src
		}
		if e.Dst > maxV {
			maxV = e.Dst
		}
		edges = append(edges, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading edge list after line %d: %w", lineNo, err)
	}
	if n < 0 {
		n = int(maxV) + 1
		if len(edges) == 0 {
			n = 0
		}
	}
	return FromEdges(n, edges, undirected)
}
