package graph

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var lineRef = regexp.MustCompile(`line \d+`)

// addEdgeListSeeds gives both edge-list fuzz targets the same corpus.
func addEdgeListSeeds(f *testing.F) {
	f.Add("# vertices 4 directed\n0 1\n1 2\n")
	f.Add("# vertices 3 undirected\n0 1\n")
	f.Add("% comment\n5 5\n1 2\n")
	f.Add("0 1\n\n\n2 3")
	f.Add("")
	for _, tc := range boundaryInputs {
		if overBudget(tc.input) {
			f.Fatalf("seed %q would be skipped", tc.name)
		}
		f.Add(tc.input)
	}
}

// fuzzVertexBudget bounds the vertex count an accepted fuzz input may
// ask for. Loading costs about 24 bytes a vertex and each target loads
// twice, so a run stays near 200 MB on one worker per CPU. Counts and
// ids past maxDeclaredVertices stay in: the reader rejects them before
// it allocates.
const fuzzVertexBudget = 1 << 22

// overBudget reports whether the largest header count, or id among
// the first two fields of an edge line, lies in [fuzzVertexBudget,
// maxDeclaredVertices]. Past the cap the input is rejected whatever
// the other lines hold.
func overBudget(input string) bool {
	most := 0
	for _, line := range strings.Split(input, "\n") {
		f := strings.Fields(line)
		nums := f[:min(len(f), 2)]
		if len(f) > 0 && (f[0][0] == '#' || f[0][0] == '%') {
			nums = nil
			if len(f) >= 3 && f[0][0] == '#' && f[1] == "vertices" {
				nums = f[2:3]
			}
		}
		for _, s := range nums {
			if v, err := strconv.Atoi(s); err == nil {
				most = max(most, v)
			}
		}
	}
	return most >= fuzzVertexBudget && most <= maxDeclaredVertices
}

// FuzzReadEdgeList: arbitrary text must never panic the reader, and
// every accepted graph must satisfy the CSR invariants and round-trip
// through WriteEdgeList bit for bit.
func FuzzReadEdgeList(f *testing.F) {
	addEdgeListSeeds(f)
	f.Fuzz(func(t *testing.T, input string) {
		if overBudget(input) {
			t.Skip()
		}
		g, err := ParallelReadEdgeListStreaming(strings.NewReader(input), LoadOptions{}, nil)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("parsed graph invalid: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		back, err := ParallelReadEdgeListStreaming(&buf, LoadOptions{}, nil)
		if err != nil {
			t.Fatalf("round trip parse failed: %v", err)
		}
		graphBitwiseEqual(t, g, back, "round trip")
	})
}

// FuzzParallelReadEdgeList: a multi-worker parse in 16-byte chunks must
// agree with a one-worker, single-chunk parse on accept/reject, on the
// offending line, and bit for bit.
func FuzzParallelReadEdgeList(f *testing.F) {
	addEdgeListSeeds(f)
	f.Fuzz(func(t *testing.T, input string) {
		if overBudget(input) {
			t.Skip()
		}
		got, perr := ParallelReadEdgeListStreaming(strings.NewReader(input), LoadOptions{Workers: 3, ChunkBytes: 16}, nil)
		want, serr := ParallelReadEdgeListStreaming(strings.NewReader(input), LoadOptions{Workers: 1, ChunkBytes: len(input) + 1}, nil)
		if (perr == nil) != (serr == nil) {
			t.Fatalf("chunkings disagree: 16-byte %v, single %v", perr, serr)
		}
		if serr != nil {
			if a, b := lineRef.FindString(perr.Error()), lineRef.FindString(serr.Error()); a != b {
				t.Fatalf("chunkings blame different lines: 16-byte %v, single %v", perr, serr)
			}
			return
		}
		graphBitwiseEqual(t, want, got, "fuzz")
	})
}
