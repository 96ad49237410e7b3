package graph

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// oracleParseChunk is the line-at-a-time reference for parseChunk:
// every line through TrimSpace, Fields and ParseUint, with the reader's
// messages.
func oracleParseChunk(c textChunk, n int) parsedChunk {
	var out parsedChunk
	for i, raw := range strings.Split(string(c.data), "\n") {
		lineNo := c.firstLine + i
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		if strings.HasPrefix(line, "#") {
			if len(fields) < 2 || fields[1] != "vertices" {
				continue
			}
			if out.headerLine > 0 || out.firstEdge > 0 {
				out.badHeader = lineNo
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
		if len(fields) < 2 {
			out.err = fmt.Errorf("graph: line %d: expected 'src dst'", lineNo)
			return out
		}
		s, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			out.err = fmt.Errorf("graph: line %d: bad src: %w", lineNo, err)
			return out
		}
		d, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			out.err = fmt.Errorf("graph: line %d: bad dst: %w", lineNo, err)
			return out
		}
		if n >= 0 && (s >= uint64(n) || d >= uint64(n)) {
			out.err = fmt.Errorf("graph: line %d: edge (%d,%d) out of declared range [0,%d)", lineNo, s, d, n)
			return out
		}
		out.edges = append(out.edges, Edge{VertexID(s), VertexID(d)})
		out.maxV = max(out.maxV, VertexID(s), VertexID(d))
		if out.firstEdge == 0 {
			out.firstEdge = lineNo
		}
	}
	return out
}

// boundaryInputs sit on either side of the reader's "src dst" fast
// path; wantErr says whether parseChunk rejects them on their own.
var boundaryInputs = []struct {
	name, input string
	wantErr     bool
}{
	{"tab separator", "0\t1\n1\t\t2\n", false},
	{"multi-space separator", "0    1\n1 \t 2\n", false},
	{"CRLF", "0 1\r\n1 2\r\n2 3\r", false},
	{"double CR", "0 1\r\r\n", false},
	{"leading blanks", "  0 1\n\t1 2\n", false},
	{"trailing blanks", "0 1 \n1 2\t\n", false},
	{"third field", "0 1 7\n1 2 x y\n", false},
	{"vertical tab separator", "0\v1\n", false},
	{"leading zeros", "007 0008\n000000000 000000001\n", false},
	{"nine digits", "123456789 987654321\n", false},
	{"seven and nine digits", "1234567 0\n000999999 001000000\n", false},
	{"ten digits", "1234567890 0\n0 0000000012\n", false},
	{"max id", "4294967295 0\n", false},
	{"id overflows", "0 1\n4294967296 0\n", true},
	{"dst overflows", "0 99999999999\n", true},
	{"plus sign", "+1 2\n", true},
	{"minus sign", "1 -2\n", true},
	{"one field", "0 1\n12\n", true},
	{"digits then junk", "1 2x\n", true},
	{"junk then digits", "1x 2\n", true},
	{"declared range, fast line", "# vertices 5 directed\n0 4\n4 5\n", true},
	{"declared range, ten digits", "# vertices 5 undirected\n0 4\n0000000004 1\n", false},
	{"no final newline", "# vertices 3 directed\n0 1\n1 2", false},
	{"header after edge", "0 1\n# vertices 3 directed\n", false},
	{"header without kind", "# vertices 3\n0 1\n", true},
}

// TestFastPathMatchesOracle: parseChunk gives the oracle's edges and
// header, or its error word for word with the same *strconv.NumError
// wrap, on every input at the fast/slow boundary, with and without a
// bound from an earlier header. The chunkings of the whole reader are
// held to each other by the fuzz targets, which share these inputs.
func TestFastPathMatchesOracle(t *testing.T) {
	for _, tc := range boundaryInputs {
		for _, n := range []int{-1, 5} {
			c := textChunk{data: []byte(tc.input), firstLine: 3}
			got, want := parseChunk(c, n), oracleParseChunk(c, n)
			if n < 0 && (want.err != nil) != tc.wantErr {
				t.Fatalf("%s: oracle error %v, want error %v", tc.name, want.err, tc.wantErr)
			}
			if (got.err == nil) != (want.err == nil) || got.err != nil && got.err.Error() != want.err.Error() {
				t.Fatalf("%s, n=%d: error %v, oracle %v", tc.name, n, got.err, want.err)
			}
			var a, b *strconv.NumError
			if errors.As(got.err, &a) != errors.As(want.err, &b) {
				t.Fatalf("%s, n=%d: *strconv.NumError wrap differs from the oracle's", tc.name, n)
			}
			if !slices.Equal(got.edges, want.edges) || got.maxV != want.maxV || got.firstEdge != want.firstEdge ||
				got.headerN != want.headerN || got.headerDir != want.headerDir || got.headerLine != want.headerLine ||
				got.badHeader != want.badHeader {
				t.Fatalf("%s, n=%d: parsed %+v, oracle %+v", tc.name, n, got, want)
			}
		}
	}
}

// edgeText is lines "src dst\n" of random ids below n.
func edgeText(lines, n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	var b bytes.Buffer
	for i := 0; i < lines; i++ {
		b.WriteString(itoa(rng.Intn(n)) + " " + itoa(rng.Intn(n)) + "\n")
	}
	return b.Bytes()
}

// TestParseChunkAllocs locks the fast path: a chunk of plain edge lines
// allocates once (its edge slice), however many lines it holds.
func TestParseChunkAllocs(t *testing.T) {
	allocs := func(lines int) float64 {
		c := textChunk{data: edgeText(lines, 1<<20, 1), firstLine: 1}
		return testing.AllocsPerRun(10, func() {
			if pc := parseChunk(c, -1); pc.err != nil || len(pc.edges) != lines {
				t.Fatalf("parsed %d edges, err %v", len(pc.edges), pc.err)
			}
		})
	}
	short, long := allocs(1000), allocs(10000)
	if short != long || long > 1 {
		t.Fatalf("parseChunk allocates %.0f objects for 1k lines, %.0f for 10k; want the same count, at most 1", short, long)
	}
}

// BenchmarkParseChunk parses one default-size (4 MiB) chunk of edge
// lines; MB/s is the text rate.
func BenchmarkParseChunk(b *testing.B) {
	c := textChunk{data: edgeText(300_000, 1<<20, 1), firstLine: 1}
	b.SetBytes(int64(len(c.data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pc := parseChunk(c, -1); pc.err != nil {
			b.Fatal(pc.err)
		}
	}
}
