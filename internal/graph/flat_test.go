package graph

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func roundTripGraph(t *testing.T, directed bool, seed int64) *Graph {
	t.Helper()
	g, err := fromEdges(120, randomEdges(120, 900, seed), !directed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// readFlat decodes a flat-format image from a fresh, hence 8-aligned,
// heap copy of b: the byte-level half of MapFlatBinary.
func readFlat(b []byte) (*Graph, error) {
	return flatFromBytes(append(make([]byte, 0, len(b)), b...))
}

// TestFlatRoundTrip: the flat format survives both the in-memory
// decode and the file mapping, bitwise.
func TestFlatRoundTrip(t *testing.T) {
	for _, directed := range []bool{true, false} {
		g := roundTripGraph(t, directed, 7)
		var buf bytes.Buffer
		if err := WriteFlatBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		if int64(buf.Len()) != FixedSizeBytes(g) {
			t.Fatalf("FixedSizeBytes=%d but encoder wrote %d", FixedSizeBytes(g), buf.Len())
		}
		got, err := readFlat(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		graphBitwiseEqual(t, g, got, "flat round trip")

		path := filepath.Join(t.TempDir(), "g.flat")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		mg, mapping, err := MapFlatBinary(path)
		if err != nil {
			t.Fatal(err)
		}
		graphBitwiseEqual(t, g, mg, "mmap view")
		if err := mapping.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// flatFixture encodes a tiny valid graph in the flat format for the
// corruption table to mangle: 3 vertices, arcs 0→{1,2}, 1→{2}.
func flatFixture() []byte {
	g, err := fromEdges(3, []Edge{{0, 1}, {0, 2}, {1, 2}}, false)
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if err := WriteFlatBinary(&buf, g); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// TestReadFlatBinaryCorrupt: every flat-format invariant violation must
// error, not panic, both decoded in memory and mapped from a file.
func TestReadFlatBinaryCorrupt(t *testing.T) {
	base := flatFixture()
	// Layout for n=3, m=3: [0:24 header][24:56 outIndex 4×i64]
	// [56:88 inIndex 4×i64][88:100 outAdj 3×u32][100:112 inAdj 3×u32]
	cases := []struct {
		name   string
		mangle func([]byte) []byte
		want   string
	}{
		{"truncated header", func(b []byte) []byte { return b[:12] }, "want at least 24"},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }, "bad flat magic"},
		{"vertex cap", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:], 1<<29)
			return b
		}, "vertices (cap"},
		{"arc cap", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[16:], 1<<40)
			return b
		}, "arcs (cap"},
		{"truncated index", func(b []byte) []byte { return b[:40] }, "header implies 112"},
		{"truncated adjacency", func(b []byte) []byte { return b[:90] }, "header implies 112"},
		{"index span", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[48:], 99) // outIndex[3] != m
			return b
		}, "does not span"},
		{"index non-monotone", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[32:], 4) // outIndex[1]=4 > outIndex[2]=3
			return b
		}, "non-monotone"},
		{"neighbor out of range", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[88:], 7)
			return b
		}, "out of range"},
		{"adjacency unsorted", func(b []byte) []byte {
			// outAdj row of vertex 0 becomes [2,1]: sorted-order violation.
			binary.LittleEndian.PutUint32(b[88:], 2)
			binary.LittleEndian.PutUint32(b[92:], 1)
			return b
		}, "not strictly sorted"},
		{"transpose broken", func(b []byte) []byte {
			// inAdj[0] (in-neighbor of 1, which is 0) becomes 1 → arc
			// (0,1) vanishes from the in-view but stays sorted.
			binary.LittleEndian.PutUint32(b[100:], 1)
			return b
		}, "in-adjacency missing arc"},
		{"false undirected flag", func(b []byte) []byte { b[4] = 1; return b }, "undirected flag set"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mangle(append([]byte(nil), base...))
			_, err := readFlat(b)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
			path := filepath.Join(t.TempDir(), "bad.flat")
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := MapFlatBinary(path); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("mapped: want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

// FuzzReadFlatBinary: arbitrary bytes must never panic, and accepted
// graphs must pass full validation.
func FuzzReadFlatBinary(f *testing.F) {
	f.Add(flatFixture())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := readFlat(data)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted invalid graph: %v", err)
		}
	})
}
