package graph

import (
	"errors"
	"strconv"
	"strings"
	"testing"
)

// chunkSizes are the ChunkBytes the reader tests run at: every line in
// its own chunk, a few lines per chunk, and the default single chunk.
var chunkSizes = []int{4, 16, 0}

// readEdgeList parses input on two workers at ChunkBytes cb.
func readEdgeList(input string, cb int) (*Graph, error) {
	return ParallelReadEdgeListStreaming(strings.NewReader(input), LoadOptions{Workers: 2, ChunkBytes: cb}, nil)
}

// TestReadEdgeListCorrupt tables the malformed-text failure modes: each
// must produce an error naming the earliest offending line, never a
// panic or a silently wrong graph, wherever the chunks fall.
func TestReadEdgeListCorrupt(t *testing.T) {
	cases := []struct {
		name  string
		input string
		want  string // substring the error must contain
	}{
		{"non-numeric header count", "# vertices x directed\n0 1\n", "line 1"},
		{"negative header count", "# vertices -5 directed\n", "line 1"},
		{"header count over cap", "# vertices 999999999999 directed\n", "cap"},
		{"missing dst field", "# vertices 3 directed\n0\n", "line 2"},
		{"non-numeric src", "zz 1\n", "line 1"},
		{"non-numeric dst", "1 zz\n", "line 1"},
		{"negative vertex id", "-1 2\n", "line 1"},
		{"edge beyond declared range", "# vertices 3 directed\n0 5\n", "line 2"},
		{"later line beyond range", "# vertices 4 directed\n0 1\n1 2\n2 9\n", "line 4"},
		{"range error before syntax error", "# vertices 3 directed\n0 5\nzz 1\n", "line 2: edge (0,5) out of declared range"},
		{"header kind capitalised", "# vertices 3 Undirected\n0 1\n", "line 1: header must read"},
		{"header kind unknown", "# vertices 3 bogus\n0 1\n", "line 1: header must read"},
		{"header without kind", "# vertices 3\n0 9\n", "line 1: header must read"},
		{"implied vertex count over cap", "0 1\n4294967295 0\n", "line 2: edge (4294967295,0) out of declared range [0,268435456)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, cb := range chunkSizes {
				_, err := readEdgeList(tc.input, cb)
				if err == nil {
					t.Fatalf("chunk %d: corrupt input accepted: %q", cb, tc.input)
				}
				if !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("chunk %d: error %q does not mention %q", cb, err, tc.want)
				}
			}
		})
	}
}

// TestReadEdgeListWrapsParseError: the %w chain must expose the
// underlying strconv failure to errors.As.
func TestReadEdgeListWrapsParseError(t *testing.T) {
	for _, cb := range chunkSizes {
		_, err := readEdgeList("0 1\nabc 1\n", cb)
		var numErr *strconv.NumError
		if !errors.As(err, &numErr) {
			t.Fatalf("chunk %d: error %v does not wrap a *strconv.NumError", cb, err)
		}
	}
}
