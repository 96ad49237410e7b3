package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"unsafe"
)

// Flat binary format: the complete CSR — both directions — laid out so
// a reader can map the file and serve adjacency queries directly from
// page cache, with no decode pass and no per-arc copy.
//
//	header:   [magic u32][flags u32][n u64][m u64]       24 bytes
//	outIndex: (n+1) × i64
//	inIndex:  (n+1) × i64
//	outAdj:   m × u32
//	inAdj:    m × u32
//
// All fields little-endian. The 24-byte header keeps every i64 array
// 8-aligned from the start of the file, which is what makes the
// zero-copy mmap view legal.
const (
	flatMagic     = uint32(0xAD9A_0007)
	flatHeaderLen = 24
)

// FixedSizeBytes returns the size of g in the flat format.
func FixedSizeBytes(g *Graph) int64 {
	return flatHeaderLen + 2*8*int64(g.NumVertices()+1) + 2*4*g.NumEdges()
}

// WriteFlatBinary writes g in the flat mmap-able CSR format.
func WriteFlatBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	var hdr [flatHeaderLen]byte
	flags := uint32(0)
	if g.Undirected() {
		flags = 1
	}
	binary.LittleEndian.PutUint32(hdr[0:], flatMagic)
	binary.LittleEndian.PutUint32(hdr[4:], flags)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(g.NumVertices()))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(g.NumEdges()))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	le := binary.LittleEndian
	for _, arr := range [][]int64{g.outIndex, g.inIndex} {
		for _, x := range arr {
			var b [8]byte
			le.PutUint64(b[:], uint64(x))
			if _, err := bw.Write(b[:]); err != nil {
				return err
			}
		}
	}
	for _, arr := range [][]VertexID{g.outAdj, g.inAdj} {
		for _, x := range arr {
			var b [4]byte
			le.PutUint32(b[:], x)
			if _, err := bw.Write(b[:]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// parseFlatHeader validates the flat header and returns (flags, n, m).
func parseFlatHeader(hdr []byte) (uint32, int, int64, error) {
	magic := binary.LittleEndian.Uint32(hdr[0:])
	flags := binary.LittleEndian.Uint32(hdr[4:])
	n := binary.LittleEndian.Uint64(hdr[8:])
	m := binary.LittleEndian.Uint64(hdr[16:])
	if magic != flatMagic {
		return 0, 0, 0, fmt.Errorf("graph: bad flat magic %#x", magic)
	}
	const maxVertices, maxArcs = 1 << 28, 1 << 31
	if n > maxVertices {
		return 0, 0, 0, fmt.Errorf("graph: header declares %d vertices (cap %d)", n, maxVertices)
	}
	if m > maxArcs {
		return 0, 0, 0, fmt.Errorf("graph: header declares %d arcs (cap %d)", m, int64(maxArcs))
	}
	return flags, int(n), int64(m), nil
}

// validateFlat checks the CSR invariants of a flat-format graph before
// it is handed to callers: monotone in-range indexes, strictly sorted
// in-range adjacency both ways, and the in-adjacency being the exact
// transpose of the out-adjacency. Without this a mapped (attacker- or
// bitrot-controlled) file could panic any traversal.
func validateFlat(g *Graph) error {
	m := int64(len(g.outAdj))
	for _, idx := range [][]int64{g.outIndex, g.inIndex} {
		if idx[0] != 0 || idx[g.n] != m {
			return fmt.Errorf("graph: flat index does not span [0,%d]", m)
		}
		for v := 0; v < g.n; v++ {
			if idx[v] > idx[v+1] {
				return fmt.Errorf("graph: flat index non-monotone at vertex %d", v)
			}
		}
	}
	for dir, adj := range [][]VertexID{g.outAdj, g.inAdj} {
		idx := g.outIndex
		if dir == 1 {
			idx = g.inIndex
		}
		for v := 0; v < g.n; v++ {
			row := adj[idx[v]:idx[v+1]]
			for i, w := range row {
				if int64(w) >= int64(g.n) {
					return fmt.Errorf("graph: flat neighbor %d of vertex %d out of range", w, v)
				}
				if i > 0 && row[i-1] >= w {
					return fmt.Errorf("graph: flat adjacency of vertex %d not strictly sorted", v)
				}
			}
		}
	}
	// Transpose check: every out-arc (v,w) must appear as v in w's
	// in-list and the totals already match, so per-arc membership is
	// sufficient. Binary search keeps this allocation-free.
	for v := 0; v < g.n; v++ {
		for _, w := range g.OutNeighbors(VertexID(v)) {
			in := g.InNeighbors(w)
			lo, hi := 0, len(in)
			for lo < hi {
				mid := (lo + hi) / 2
				if in[mid] < VertexID(v) {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if lo >= len(in) || in[lo] != VertexID(v) {
				return fmt.Errorf("graph: flat in-adjacency missing arc (%d,%d)", v, w)
			}
		}
	}
	if g.undirected {
		for v := 0; v <= g.n; v++ {
			if g.outIndex[v] != g.inIndex[v] {
				return fmt.Errorf("graph: undirected flag set but vertex %d has in/out degree mismatch", v-1)
			}
		}
		for i := range g.outAdj {
			if g.outAdj[i] != g.inAdj[i] {
				return fmt.Errorf("graph: undirected flag set but adjacency is asymmetric")
			}
		}
	}
	return nil
}

// flatFromBytes builds the Graph over a flat-format byte image, its
// four CSR arrays aliasing data — the one decoder of the format, behind
// MapFlatBinary. data must be 8-aligned (mappings and heap buffers
// are); only valid on little-endian hosts (every supported target), as
// the arrays are reinterpreted in place. All invariants are validated,
// so corrupt input errors out instead of panicking later.
func flatFromBytes(data []byte) (*Graph, error) {
	if len(data) < flatHeaderLen {
		return nil, fmt.Errorf("graph: flat file is %d bytes, want at least %d", len(data), flatHeaderLen)
	}
	flags, n, m, err := parseFlatHeader(data[:flatHeaderLen])
	if err != nil {
		return nil, err
	}
	need := int64(flatHeaderLen) + 2*8*int64(n+1) + 2*4*m
	if int64(len(data)) != need {
		return nil, fmt.Errorf("graph: flat file is %d bytes, header implies %d", len(data), need)
	}
	g := &Graph{n: n, undirected: flags&1 != 0}
	off := int64(flatHeaderLen)
	g.outIndex = unsafe.Slice((*int64)(unsafe.Pointer(&data[off])), n+1)
	off += 8 * int64(n+1)
	g.inIndex = unsafe.Slice((*int64)(unsafe.Pointer(&data[off])), n+1)
	off += 8 * int64(n+1)
	if m > 0 {
		g.outAdj = unsafe.Slice((*VertexID)(unsafe.Pointer(&data[off])), m)
		off += 4 * m
		g.inAdj = unsafe.Slice((*VertexID)(unsafe.Pointer(&data[off])), m)
	} else {
		g.outAdj, g.inAdj = []VertexID{}, []VertexID{}
	}
	if err := validateFlat(g); err != nil {
		return nil, err
	}
	return g, nil
}
