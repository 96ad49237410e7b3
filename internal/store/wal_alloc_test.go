package store

import (
	"testing"

	"adp/internal/graph"
)

// TestWalAppendAllocFree pins the framing hot path at zero heap
// allocations per record: the payload prefix and the edge body live on
// the stack and the CRC is chained piecewise, so a steady-state append
// into a buffer with retained capacity never touches the allocator: a
// reintroduced per-frame make() shows up here first.
func TestWalAppendAllocFree(t *testing.T) {
	buf := make([]byte, 0, 1<<12)
	lsn := uint64(1)
	allocs := testing.AllocsPerRun(1000, func() {
		var eb [8]byte
		putEdge(eb[:], 7, 9)
		buf = appendFrame(buf[:0], lsn, recInsert, eb[:])
		lsn++
	})
	if allocs != 0 {
		t.Fatalf("appendFrame allocates %.1f times per record, want 0", allocs)
	}
}

// TestWalAppendRoundTrip checks that the chained-CRC encoder produces
// frames the scanner accepts and decodes bit-for-bit — the equivalence
// that lets appendFrame skip materialising the contiguous payload.
func TestWalAppendRoundTrip(t *testing.T) {
	buf := newSegmentHeader()
	var eb [8]byte
	putEdge(eb[:], 3, 12)
	buf = appendFrame(buf, 1, recInsert, eb[:])
	putEdge(eb[:], graph.VertexID(1<<31), 0xFFFF_FFFF)
	buf = appendFrame(buf, 2, recDelete, eb[:])
	buf = appendFrame(buf, 3, recCommit, []byte{2, 0, 0, 0})

	frames, dmg, err := scanSegment(buf, 1)
	if err != nil || dmg != nil {
		t.Fatalf("scanSegment: err=%v damage=%v", err, dmg)
	}
	if len(frames) != 3 {
		t.Fatalf("decoded %d frames, want 3", len(frames))
	}
	u, v, err := decodeEdgeBody(frames[0].body)
	if err != nil || u != 3 || v != 12 {
		t.Fatalf("frame 0 decoded to (%d,%d), err=%v", u, v, err)
	}
	u, v, err = decodeEdgeBody(frames[1].body)
	if err != nil || u != 1<<31 || v != 0xFFFF_FFFF {
		t.Fatalf("frame 1 decoded to (%d,%d), err=%v", u, v, err)
	}
	if frames[2].kind != recCommit {
		t.Fatalf("frame 2 kind %v, want commit", frames[2].kind)
	}
}

func decodeEdgeBody(body []byte) (uint32, uint32, error) {
	u, v, err := decodeEdge(body)
	return u, v, err
}
