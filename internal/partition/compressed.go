package partition

import (
	"encoding/binary"

	"adp/internal/graph"
)

// Compressed fragment form: the cold-storage representation behind the
// Compile lifecycle. Adjacency lists keep their insertion order (the
// order floating-point reductions replay in), so they are not sorted
// and are encoded as zigzag deltas; the sorted arc-key array is
// monotone and takes plain deltas. Inflating the compressed form
// reproduces the packed compiled form bitwise (see compile_test), so a
// partition can round-trip packed → compressed → packed freely.
//
// Typical arc cost: ~2 bytes in each adjacency stream plus ~2-5 bytes
// in the arc stream, versus 16 bytes (8-byte key + two 4-byte
// adjacency slots) packed.
type compressedFragment struct {
	nv  int // vertex universe, for the inflated local remap
	ids []graph.VertexID
	// Byte extents of each local id's list within outData/inData.
	outOff, inOff []int32
	outData       []byte
	inData        []byte
	// arcData holds the sorted arc keys as plain uvarint deltas.
	arcData []byte
	numArcs int
}

// appendZigzagDeltas encodes xs as zigzag deltas from a running
// previous value starting at 0.
func appendZigzagDeltas(dst []byte, xs []graph.VertexID) []byte {
	prev := int64(0)
	var tmp [binary.MaxVarintLen64]byte
	for _, x := range xs {
		d := int64(x) - prev
		n := binary.PutUvarint(tmp[:], uint64((d<<1)^(d>>63)))
		dst = append(dst, tmp[:n]...)
		prev = int64(x)
	}
	return dst
}

// decodeZigzagDeltas decodes exactly the bytes of one list into dst.
// Returns the decoded slice and whether the stream was well-formed.
func decodeZigzagDeltas(dst []graph.VertexID, data []byte) ([]graph.VertexID, bool) {
	prev := int64(0)
	for len(data) > 0 {
		zz, n := binary.Uvarint(data)
		if n <= 0 {
			return dst, false
		}
		data = data[n:]
		d := int64(zz>>1) ^ -int64(zz&1)
		prev += d
		if prev < 0 || prev > 0xffffffff {
			return dst, false
		}
		dst = append(dst, graph.VertexID(prev))
	}
	return dst, true
}

// compressFragment builds the compressed form from a compiled one.
func compressFragment(c *compiledFragment) *compressedFragment {
	z := &compressedFragment{
		nv:      len(c.local),
		ids:     c.ids,
		outOff:  make([]int32, len(c.ids)+1),
		inOff:   make([]int32, len(c.ids)+1),
		numArcs: len(c.arcs),
	}
	z.outData = make([]byte, 0, len(c.outAdj)*2)
	z.inData = make([]byte, 0, len(c.inAdj)*2)
	for l := range c.ids {
		z.outData = appendZigzagDeltas(z.outData, c.adjs[l].Out)
		z.outOff[l+1] = int32(len(z.outData))
		z.inData = appendZigzagDeltas(z.inData, c.adjs[l].In)
		z.inOff[l+1] = int32(len(z.inData))
	}
	z.arcData = make([]byte, 0, len(c.arcs)*3)
	var tmp [binary.MaxVarintLen64]byte
	prev := uint64(0)
	for _, k := range c.arcs {
		n := binary.PutUvarint(tmp[:], k-prev)
		z.arcData = append(z.arcData, tmp[:n]...)
		prev = k
	}
	return z
}

// inflate reconstructs the packed compiled form. The compressed form
// is only ever built from a valid compiled fragment, so decode errors
// cannot occur here; the streams decode to exactly the recorded
// extents by construction.
func (z *compressedFragment) inflate() *compiledFragment {
	c := &compiledFragment{ids: z.ids, local: newLocal(z.nv, z.ids)}
	c.adjs = make([]Adj, len(z.ids))
	c.outAdj = make([]graph.VertexID, 0, z.numArcs)
	c.inAdj = make([]graph.VertexID, 0, z.numArcs)
	c.arcOff = make([]int32, len(z.ids)+1)
	c.arcOff[len(z.ids)] = int32(z.numArcs)
	for l := range z.ids {
		oLo := len(c.outAdj)
		c.arcOff[l] = int32(oLo)
		c.outAdj, _ = decodeZigzagDeltas(c.outAdj, z.outData[z.outOff[l]:z.outOff[l+1]])
		iLo := len(c.inAdj)
		c.inAdj, _ = decodeZigzagDeltas(c.inAdj, z.inData[z.inOff[l]:z.inOff[l+1]])
		c.adjs[l] = Adj{Out: c.outAdj[oLo:len(c.outAdj):len(c.outAdj)], In: c.inAdj[iLo:len(c.inAdj):len(c.inAdj)]}
	}
	c.arcs = make([]uint64, 0, z.numArcs)
	data, prev := z.arcData, uint64(0)
	for len(data) > 0 {
		d, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		data = data[n:]
		prev += d
		c.arcs = append(c.arcs, prev)
	}
	return c
}

// byteSize returns the heap footprint of the compressed form's arrays.
func (z *compressedFragment) byteSize() int64 {
	return int64(len(z.ids))*4 +
		int64(len(z.outOff)+len(z.inOff))*4 +
		int64(len(z.outData)+len(z.inData)+len(z.arcData))
}

// byteSize returns the heap footprint of the compiled form's arrays.
func (c *compiledFragment) byteSize() int64 {
	const adjHdr = 48 // two slice headers
	return int64(len(c.ids))*4 + int64(len(c.local))*4 +
		int64(len(c.adjs))*adjHdr +
		int64(len(c.outAdj)+len(c.inAdj))*4 +
		int64(len(c.arcs))*8 + int64(len(c.arcOff))*4
}

// CompileCompressed compiles every fragment (if needed) and swaps its
// base to the compressed cold form, dropping the packed arrays.
// Accessors that need random access (HasArc, Adjacency, the engine's
// compiled views) transparently inflate a fragment back to packed form
// on first use, as does the first structural mutation —
// CompileCompressed is a storage-state transition, not a restriction
// on what the partition can do afterwards.
func (p *Partition) CompileCompressed() *Partition {
	p.Compile()
	for _, f := range p.frags {
		if f.czf.Load() == nil {
			f.czf.Store(compressFragment(f.base.Load()))
		}
		f.base.Store(nil)
	}
	return p
}

// FootprintBytes reports the heap bytes of the adjacency storage in
// both lifecycles: packed is the compiled-form cost (computed even
// when the fragment is currently compressed), compressed the
// delta-varint cost (computed even when only the packed form exists).
// The bench series csr_bytes_packed / csr_bytes_compressed gate the
// ratio so the memory win is self-policing.
func (p *Partition) FootprintBytes() (packed, compressed int64) {
	for _, f := range p.frags {
		if f.ov.Load() != nil {
			p.Compile()
		}
		z := f.czf.Load()
		c := f.base.Load()
		if z == nil {
			z = compressFragment(c)
		}
		if c == nil {
			// Packed cost is derivable from the compressed metadata
			// without inflating.
			const adjHdr = 48
			packed += int64(len(z.ids))*4 + int64(z.nv)*4 +
				int64(len(z.ids))*adjHdr +
				int64(z.numArcs)*8 + // outAdj+inAdj, 4 bytes each
				int64(z.numArcs)*8 + int64(len(z.ids)+1)*4
		} else {
			packed += c.byteSize()
		}
		compressed += z.byteSize()
	}
	return packed, compressed
}
