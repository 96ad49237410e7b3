package graph

import (
	"bytes"
	"regexp"
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
}

// FuzzReadEdgeList: arbitrary text must never panic the reader, and
// every accepted graph must satisfy the CSR invariants and round-trip
// through WriteEdgeList bit for bit.
func FuzzReadEdgeList(f *testing.F) {
	addEdgeListSeeds(f)
	f.Fuzz(func(t *testing.T, input string) {
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
