package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"adp/internal/pool"
)

// Big-graph ingestion: the work splits into data-determined chunks
// (fixed byte/arc extents, never dependent on the worker count),
// processed on an internal/pool instance and merged with a
// deterministic k-way merge — so the resulting Graph is bitwise
// identical for any Workers value, including 1. Every constructor, the
// sequential Builder included, builds through the one expand → sort →
// merge → CSR fill below.

// LoadOptions tunes the parallel ingestion paths.
type LoadOptions struct {
	// Workers bounds the pool; <= 0 uses GOMAXPROCS.
	Workers int
	// ChunkBytes is the target text-chunk size for
	// ParallelReadEdgeListStreaming;
	// <= 0 selects 4 MiB. Chunk boundaries extend to the next newline,
	// so they are a function of the input bytes only.
	ChunkBytes int
}

func (o LoadOptions) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

func (o LoadOptions) chunkBytes() int {
	if o.ChunkBytes <= 0 {
		return 4 << 20
	}
	return o.ChunkBytes
}

// arcChunk is the fixed arc-extent processed per pool task when
// sorting and expanding edge slices; a function of the data size only.
const arcChunk = 1 << 17

// textChunk is one newline-aligned byte range of an edge-list input.
type textChunk struct {
	data      []byte
	firstLine int // 1-based global line number of the chunk's first line
}

// parsedChunk is the outcome of parsing one textChunk.
type parsedChunk struct {
	edges      []Edge
	maxV       VertexID
	headerN    int  // the header's vertex count
	headerDir  bool // the header's undirected flag
	headerLine int  // the header's line, 0 if the chunk has none
	firstEdge  int  // the first edge line, 0 if the chunk has none
	badHeader  int  // a header after the chunk's own header or edge
	err        error
}

// splitLines reads r fully and cuts it into newline-aligned chunks of
// roughly chunkBytes each, recording global first-line numbers so
// parse errors keep exact line attribution.
func splitLines(r io.Reader, chunkBytes int) ([]textChunk, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var chunks []textChunk
	line := 1
	for {
		buf := make([]byte, chunkBytes)
		n, err := io.ReadFull(br, buf)
		buf = buf[:n]
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			if len(buf) > 0 {
				chunks = append(chunks, textChunk{data: buf, firstLine: line})
			}
			return chunks, nil
		}
		if err != nil {
			return nil, err
		}
		// Extend to the end of the current line.
		tail, rerr := br.ReadBytes('\n')
		buf = append(buf, tail...)
		chunks = append(chunks, textChunk{data: buf, firstLine: line})
		line += bytes.Count(buf, []byte{'\n'})
		if rerr == io.EOF {
			return chunks, nil
		}
		if rerr != nil {
			return nil, rerr
		}
	}
}

// parseChunk parses one newline-aligned byte range of the edge-list
// grammar: "src dst" lines, at most one "# vertices N directed|undirected"
// header before the first edge, other '#' and '%' lines skipped. n is
// the vertex count declared before the chunk, -1 when none is known;
// edges are range-checked against it, or against the chunk's own
// header. Plain "src dst" lines take fastEdge; every other line takes
// the general path.
func parseChunk(c textChunk, n int) parsedChunk {
	// The shortest edge line, "0 0\n", is 4 bytes.
	out := parsedChunk{edges: make([]Edge, 0, min(bytes.Count(c.data, []byte{'\n'})+1, len(c.data)/4+1))}
	lineNo := c.firstLine - 1
	data := c.data
	for len(data) > 0 {
		lineNo++
		raw := data
		if nl := bytes.IndexByte(data, '\n'); nl >= 0 {
			raw, data = data[:nl], data[nl+1:]
		} else {
			data = nil
		}
		s, d, ok := fastEdge(raw)
		if !ok {
			line := strings.TrimSpace(string(raw))
			if line == "" || strings.HasPrefix(line, "%") {
				continue
			}
			if strings.HasPrefix(line, "#") {
				fields := strings.Fields(line)
				if len(fields) < 2 || fields[1] != "vertices" {
					continue
				}
				if out.headerLine > 0 || out.firstEdge > 0 {
					out.badHeader = lineNo // reported at merge, against the whole input
					return out
				}
				out.headerLine = lineNo
				if len(fields) != 4 || fields[3] != "directed" && fields[3] != "undirected" {
					out.err = fmt.Errorf("graph: line %d: header must read '# vertices N directed|undirected'", lineNo)
					return out
				}
				v, err := strconv.Atoi(fields[2])
				if err != nil {
					out.err = fmt.Errorf("graph: line %d: bad header vertex count: %w", lineNo, err)
					return out
				}
				if v < 0 || v > maxDeclaredVertices {
					out.err = fmt.Errorf("graph: line %d: header declares %d vertices (cap %d)", lineNo, v, maxDeclaredVertices)
					return out
				}
				out.headerN, out.headerDir = v, fields[3] == "undirected"
				n = v
				continue
			}
			fields := strings.Fields(line)
			if len(fields) < 2 {
				out.err = fmt.Errorf("graph: line %d: expected 'src dst'", lineNo)
				return out
			}
			var err error
			if s, err = strconv.ParseUint(fields[0], 10, 32); err != nil {
				out.err = fmt.Errorf("graph: line %d: bad src: %w", lineNo, err)
				return out
			}
			if d, err = strconv.ParseUint(fields[1], 10, 32); err != nil {
				out.err = fmt.Errorf("graph: line %d: bad dst: %w", lineNo, err)
				return out
			}
		}
		if n >= 0 && (s >= uint64(n) || d >= uint64(n)) {
			out.err = fmt.Errorf("graph: line %d: edge (%d,%d) out of declared range [0,%d)", lineNo, s, d, n)
			return out
		}
		e := Edge{VertexID(s), VertexID(d)}
		out.maxV = max(out.maxV, e.Src, e.Dst)
		if out.firstEdge == 0 {
			out.firstEdge = lineNo
		}
		out.edges = append(out.edges, e)
	}
	return out
}

// fastEdge parses a line of the shape digits [ \t]+ digits [\r] with at
// most nine digits per id, so both always fit a VertexID; ok is false
// for every other line.
func fastEdge(b []byte) (s, d uint64, ok bool) {
	s, i := leadingDigits(b)
	j := i
	for j < len(b) && (b[j] == ' ' || b[j] == '\t') {
		j++
	}
	d, k := leadingDigits(b[j:])
	if i == 0 || i > 9 || j == i || k == 0 || k > 9 {
		return 0, 0, false
	}
	if k += j; k < len(b) && b[k] == '\r' {
		k++
	}
	return s, d, k == len(b)
}

// leadingDigits returns the value of b's leading decimal digits, at
// most ten of them, and how many there were.
func leadingDigits(b []byte) (v uint64, i int) {
	for ; i < len(b) && i < 10 && '0' <= b[i] && b[i] <= '9'; i++ {
		v = v*10 + uint64(b[i]-'0')
	}
	return v, i
}

// ParallelReadEdgeListStreaming parses the WriteEdgeList/SNAP text
// format chunk-parallel and builds the Graph; a non-nil consume
// receives every finished forward star during the build, the one-pass
// load-and-partition path for edge-list files. Malformed input fails
// with the earliest offending line; errors wrap the underlying parse or
// IO cause. The result is independent of opt.Workers and
// opt.ChunkBytes.
func ParallelReadEdgeListStreaming(r io.Reader, opt LoadOptions, consume VertexConsumer) (*Graph, error) {
	chunks, err := splitLines(r, opt.chunkBytes())
	if err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	pl := pool.New(opt.workers())
	defer pl.Close()
	parsed := pool.Map(pl, len(chunks), func(i int) parsedChunk {
		return parseChunk(chunks[i], -1)
	})
	n := -1
	undirected := false
	maxV := VertexID(0)
	total := 0
	headerLine, firstEdge := 0, 0
	for i, pc := range parsed {
		limit := n // without a header the ids imply n, under the same cap
		if limit < 0 {
			limit = maxDeclaredVertices
		}
		// The header rule spans chunks: a chunk's first header is checked
		// against the earlier chunks, before pc.err, which can only come
		// from a later line.
		if pc.headerLine > 0 {
			if err := headerError(pc.headerLine, headerLine, firstEdge); err != nil {
				return nil, err
			}
			n, undirected, headerLine = pc.headerN, pc.headerDir, pc.headerLine
		} else if len(pc.edges) > 0 && int64(pc.maxV) >= int64(limit) {
			// An id passes the bound, which was unknown when this chunk was
			// parsed: re-parse it against limit, on this error path only, so
			// the violation names its line and wins over any later error.
			pc = parseChunk(chunks[i], limit)
		}
		if firstEdge == 0 {
			firstEdge = pc.firstEdge
		}
		if pc.badHeader > 0 {
			return nil, headerError(pc.badHeader, headerLine, firstEdge)
		}
		if pc.err != nil {
			return nil, pc.err
		}
		if pc.maxV > maxV {
			maxV = pc.maxV
		}
		total += len(pc.edges)
	}
	edges := make([]Edge, 0, total)
	for _, pc := range parsed {
		edges = append(edges, pc.edges...)
	}
	if n < 0 {
		n = int(maxV) + 1
		if len(edges) == 0 {
			n = 0
		}
	}
	return build(n, edges, undirected, false, pl, consume)
}

// FromEdgesParallel builds the Graph of an explicit edge list — bitwise
// what Builder builds — by expanding, sorting, and filling the CSR in
// parallel on pl. Chunk
// extents depend only on len(edges), so the output does not vary with
// the pool's worker count.
func FromEdgesParallel(n int, edges []Edge, undirected bool, pl *pool.Pool) (*Graph, error) {
	return build(n, edges, undirected, false, pl, nil)
}

// build is the one CSR construction: expand, sort and merge the arcs on
// pl, fill the out-CSR, then the in-CSR. With consume non-nil the
// finished forward stars stream to it in id order on this goroutine
// while the in-adjacency scatter proceeds on a helper.
func build(n int, edges []Edge, undirected, keepLoops bool, pl *pool.Pool, consume VertexConsumer) (*Graph, error) {
	arcs, err := expandSortMerge(n, edges, undirected, keepLoops, pl)
	if err != nil {
		return nil, err
	}
	g := &Graph{n: n, undirected: undirected}
	g.outIndex = make([]int64, n+1)
	for _, e := range arcs {
		g.outIndex[e.Src+1]++
	}
	for v := 0; v < n; v++ {
		g.outIndex[v+1] += g.outIndex[v]
	}
	// Sorted by (src,dst), the out-adjacency is simply the dst column.
	g.outAdj = make([]VertexID, len(arcs))
	pl.RunChunks(len(arcs), arcChunk, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			g.outAdj[i] = arcs[i].Dst
		}
	})
	if consume == nil {
		g.buildInAdjacency(arcs)
		return g, nil
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		g.buildInAdjacency(arcs)
	}()
	consume.Begin(n, int64(len(arcs)))
	for v := 0; v < n; v++ {
		consume.Vertex(VertexID(v), g.outAdj[g.outIndex[v]:g.outIndex[v+1]])
	}
	<-done
	return g, nil
}

// expandSortMerge bounds-checks edges, expands them per fixed-extent
// chunk (loops dropped unless keepLoops, kept once when symmetrising;
// every other edge gains its reverse when undirected), sorts each
// chunk, and k-way-merges the sorted runs into one sorted
// duplicate-free arc slice.
func expandSortMerge(n int, edges []Edge, undirected, keepLoops bool, pl *pool.Pool) ([]Edge, error) {
	nchunks := (len(edges) + arcChunk - 1) / arcChunk
	if nchunks == 0 {
		return nil, nil
	}
	errs := make([]error, nchunks)
	runs := make([][]Edge, nchunks)
	pl.Run(nchunks, func(c int) {
		lo, hi := c*arcChunk, min((c+1)*arcChunk, len(edges))
		for _, e := range edges[lo:hi] {
			if int(e.Src) >= n || int(e.Dst) >= n {
				errs[c] = fmt.Errorf("graph: edge (%d,%d) out of range for n=%d", e.Src, e.Dst, n)
				return
			}
		}
		run := make([]Edge, 0, (hi-lo)*2)
		for _, e := range edges[lo:hi] {
			if e.Src == e.Dst {
				if keepLoops {
					run = append(run, e)
				}
				continue
			}
			run = append(run, e)
			if undirected {
				run = append(run, Edge{e.Dst, e.Src})
			}
		}
		slices.SortFunc(run, cmpEdge)
		runs[c] = run
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return mergeRuns(runs), nil
}

// buildInAdjacency fills inIndex/inAdj from sorted deduped arcs; the
// arc-order scatter yields sorted in-lists (sources ascend per
// destination bucket).
func (g *Graph) buildInAdjacency(arcs []Edge) {
	g.inIndex = make([]int64, g.n+1)
	g.inAdj = make([]VertexID, len(arcs))
	for _, e := range arcs {
		g.inIndex[e.Dst+1]++
	}
	for v := 0; v < g.n; v++ {
		g.inIndex[v+1] += g.inIndex[v]
	}
	cursor := make([]int64, g.n)
	copy(cursor, g.inIndex[:g.n])
	for _, e := range arcs {
		g.inAdj[cursor[e.Dst]] = e.Src
		cursor[e.Dst]++
	}
}

func cmpEdge(a, b Edge) int {
	if a.Src != b.Src {
		if a.Src < b.Src {
			return -1
		}
		return 1
	}
	switch {
	case a.Dst < b.Dst:
		return -1
	case a.Dst > b.Dst:
		return 1
	}
	return 0
}

// mergeRuns k-way-merges sorted runs into one sorted duplicate-free
// slice. The result depends only on the multiset of arcs, so any run
// partitioning — and therefore any worker count — converges to the
// same bytes.
func mergeRuns(runs [][]Edge) []Edge {
	total := 0
	live := runs[:0]
	for _, r := range runs {
		if len(r) > 0 {
			live = append(live, r)
			total += len(r)
		}
	}
	if len(live) == 0 {
		return nil
	}
	if len(live) == 1 {
		return dedupSorted(live[0])
	}
	// Small binary heap keyed by each run's head arc.
	heap := make([]int, len(live)) // indexes into live
	pos := make([]int, len(live))
	for i := range heap {
		heap[i] = i
	}
	less := func(a, b int) bool {
		ea, eb := live[a][pos[a]], live[b][pos[b]]
		if c := cmpEdge(ea, eb); c != 0 {
			return c < 0
		}
		return a < b
	}
	var down func(i, n int)
	down = func(i, n int) {
		for {
			l := 2*i + 1
			if l >= n {
				return
			}
			j := l
			if r := l + 1; r < n && less(heap[r], heap[l]) {
				j = r
			}
			if !less(heap[j], heap[i]) {
				return
			}
			heap[i], heap[j] = heap[j], heap[i]
			i = j
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		down(i, len(heap))
	}
	out := make([]Edge, 0, total)
	hn := len(heap)
	for hn > 0 {
		r := heap[0]
		e := live[r][pos[r]]
		if len(out) == 0 || out[len(out)-1] != e {
			out = append(out, e)
		}
		pos[r]++
		if pos[r] == len(live[r]) {
			heap[0] = heap[hn-1]
			hn--
		}
		down(0, hn)
	}
	return out
}

// VertexConsumer receives the finished forward stars of a streaming
// build in ascending id order. Begin runs before the first Vertex call
// with the final vertex and arc counts (streaming partitioners need
// |E| for their objective before the first placement).
type VertexConsumer interface {
	Begin(nv int, m int64)
	Vertex(v VertexID, out []VertexID)
}
