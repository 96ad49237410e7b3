package partition

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"adp/internal/graph"
)

// Serialisation: a partition persists as its fragment arc sets plus
// the owner and master maps; the graph itself is stored separately
// (see graph.WriteFlatBinary) and supplied again at load time, the way a
// production system keeps topology and placement apart.

const partitionMagic = uint32(0xAD9A_0002)

// Write serialises p in a compact little-endian binary format.
func Write(w io.Writer, p *Partition) error {
	bw := bufio.NewWriter(w)
	le := binary.LittleEndian
	if err := binary.Write(bw, le, [3]uint32{partitionMagic, uint32(p.NumFragments()), uint32(p.g.NumVertices())}); err != nil {
		return err
	}
	for i := 0; i < p.NumFragments(); i++ {
		f := p.Fragment(i)
		if err := binary.Write(bw, le, uint32(f.NumArcs())); err != nil {
			return err
		}
		// The arcs, then the edge-less placeholder copies (isolated vertices).
		var arcs [][2]uint32
		var loners []uint32
		f.Vertices(func(v graph.VertexID, adj *Adj) {
			for _, u := range adj.Out {
				arcs = append(arcs, [2]uint32{uint32(v), uint32(u)})
			}
			if adj.LocalDegree() == 0 {
				loners = append(loners, uint32(v))
			}
		})
		if err := binary.Write(bw, le, arcs); err != nil {
			return err
		}
		if err := binary.Write(bw, le, uint32(len(loners))); err != nil {
			return err
		}
		if err := binary.Write(bw, le, loners); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, le, p.owner); err != nil {
		return err
	}
	if err := binary.Write(bw, le, p.master); err != nil {
		return err
	}
	return bw.Flush()
}

// maxFragments caps the fragment count a stored partition may declare;
// real deployments run tens to thousands of workers, so anything past
// this is corrupt input, not a big cluster.
const maxFragments = 1 << 20

// Read reconstructs a partition of g from the format produced by
// Write. The partition's edge set may have drifted from g through
// logged inserts and deletes (the durable store's snapshots), so
// stored arcs need not exist in g; the vertex count must match.
//
// Every count and id read from the wire is validated against g before
// use — a truncated, bit-flipped, or hostile stream yields a wrapped
// error naming the offending fragment, never a panic or an
// invariant-violating partition.
//
// The decoder collects each fragment's arc keys with block reads and
// manual little-endian decoding, builds the fragments directly in
// compiled form (file order == insertion order), and wires the
// partition-level copies/master indexes from one counting arena — the
// store_recover hot path. Reads stay chunked (readChunkArcs at a time)
// so a corrupt or hostile count cannot demand a huge up-front
// allocation: memory grows only as data actually arrives.
func Read(r io.Reader, g *graph.Graph) (*Partition, error) {
	br := bufio.NewReader(r)
	le := binary.LittleEndian
	var hdr [12]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("partition: reading header: %w", err)
	}
	magic, n, nv := le.Uint32(hdr[0:]), le.Uint32(hdr[4:]), le.Uint32(hdr[8:])
	if magic != partitionMagic {
		return nil, fmt.Errorf("partition: bad magic %#x", magic)
	}
	if n == 0 || n > maxFragments {
		return nil, fmt.Errorf("partition: stored fragment count %d out of range [1,%d]", n, maxFragments)
	}
	if int(nv) != g.NumVertices() {
		return nil, fmt.Errorf("partition: stored for %d vertices, graph has %d", nv, g.NumVertices())
	}
	const readChunkArcs = 1 << 15
	scratch := make([]byte, readChunkArcs*8)
	readU32 := func() (uint32, error) {
		_, err := io.ReadFull(br, scratch[:4])
		return le.Uint32(scratch[:4]), err
	}
	frags := make([]*Fragment, 0, n)
	for i := 0; i < int(n); i++ {
		arcs, err := readU32()
		if err != nil {
			return nil, fmt.Errorf("partition: reading arc count of fragment %d: %w", i, err)
		}
		keys := make([]uint64, 0, min(int(arcs), readChunkArcs))
		for done := 0; done < int(arcs); {
			chunk := min(int(arcs)-done, readChunkArcs)
			buf := scratch[:chunk*8]
			if nr, err := io.ReadFull(br, buf); err != nil {
				return nil, fmt.Errorf("partition: reading arc %d of fragment %d: %w", done+nr/8, i, err)
			}
			for a := 0; a < chunk; a++ {
				u, v := le.Uint32(buf[a*8:]), le.Uint32(buf[a*8+4:])
				if u >= nv || v >= nv {
					return nil, fmt.Errorf("partition: fragment %d stores arc (%d,%d) beyond %d vertices", i, u, v, nv)
				}
				keys = append(keys, arcKey(graph.VertexID(u), graph.VertexID(v)))
			}
			done += chunk
		}
		// AddArc ignored repeated arcs; the flat path dedups explicitly.
		keys = dedupKeysInOrder(keys)
		loners, err := readU32()
		if err != nil {
			return nil, fmt.Errorf("partition: reading loner count of fragment %d: %w", i, err)
		}
		if loners > nv {
			return nil, fmt.Errorf("partition: fragment %d declares %d loners, graph has %d vertices", i, loners, nv)
		}
		lids := make([]graph.VertexID, 0, min(int(loners), readChunkArcs))
		for done := 0; done < int(loners); {
			chunk := min(int(loners)-done, readChunkArcs)
			buf := scratch[:chunk*4]
			if nr, err := io.ReadFull(br, buf); err != nil {
				return nil, fmt.Errorf("partition: reading loner %d of fragment %d: %w", done+nr/4, i, err)
			}
			for l := 0; l < chunk; l++ {
				v := le.Uint32(buf[l*4:])
				if v >= nv {
					return nil, fmt.Errorf("partition: fragment %d lists loner %d beyond %d vertices", i, v, nv)
				}
				lids = append(lids, graph.VertexID(v))
			}
			done += chunk
		}
		frags = append(frags, freezeFragment(i, buildCompiled(g.NumVertices(), keys, lids)))
	}
	owner := make([]int32, nv)
	if err := readI32s(br, owner, scratch); err != nil {
		return nil, fmt.Errorf("partition: reading owner map: %w", err)
	}
	master := make([]int32, nv)
	if err := readI32s(br, master, scratch); err != nil {
		return nil, fmt.Errorf("partition: reading master map: %w", err)
	}
	p := assembleFrozen(g, frags, master)
	for v, o := range owner {
		if o < -1 || o >= int32(n) {
			return nil, fmt.Errorf("partition: owner of vertex %d is fragment %d of %d", v, o, n)
		}
	}
	copy(p.owner, owner)
	for v, mfrag := range master {
		if mfrag >= int32(n) {
			return nil, fmt.Errorf("partition: master of vertex %d is fragment %d of %d", v, mfrag, n)
		}
		// A master that holds no copy falls back to the lowest fragment
		// that does.
		if mfrag < 0 || !p.frags[mfrag].Has(graph.VertexID(v)) {
			if master[v] = -1; len(p.copies[v]) > 0 {
				master[v] = p.copies[v][0]
			}
		}
	}
	return p, nil
}

// readI32s block-reads little-endian int32s into dst using scratch.
func readI32s(r io.Reader, dst []int32, scratch []byte) error {
	le := binary.LittleEndian
	for done := 0; done < len(dst); {
		chunk := min(len(dst)-done, len(scratch)/4)
		buf := scratch[:chunk*4]
		if _, err := io.ReadFull(r, buf); err != nil {
			return err
		}
		for k := 0; k < chunk; k++ {
			dst[done+k] = int32(le.Uint32(buf[k*4:]))
		}
		done += chunk
	}
	return nil
}
