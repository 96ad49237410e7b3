package composite

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"adp/internal/graph"
	"adp/internal/partition"
)

const compositeMagic = uint32(0xAD9A_0003)

// Write serialises the composite: a header plus each bundled partition
// in the partition binary format. The coherence index and cores are
// recomputed on load (they are derived state).
func Write(w io.Writer, c *Composite) error {
	bw := bufio.NewWriter(w)
	le := binary.LittleEndian
	if err := binary.Write(bw, le, compositeMagic); err != nil {
		return err
	}
	if err := binary.Write(bw, le, uint32(c.k)); err != nil {
		return err
	}
	for _, p := range c.parts {
		if err := partition.Write(bw, p); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// maxPartitions caps the bundle size a stored composite may declare;
// it mirrors the residualSet bitset width, so anything past it is
// corrupt input, not a big bundle.
const maxPartitions = 32

// Read reconstructs a composite over g from the format produced by
// Write. Each bundled partition decodes through partition.Read, so the
// composite's edge set may have drifted from g (the durable store's
// snapshots).
//
// Header fields are validated before any allocation scales with them —
// a truncated, bit-flipped, or hostile stream yields a wrapped error,
// never a panic or an oversized allocation.
func Read(r io.Reader, g *graph.Graph) (*Composite, error) {
	br := bufio.NewReader(r)
	le := binary.LittleEndian
	var magic, k uint32
	if err := binary.Read(br, le, &magic); err != nil {
		return nil, fmt.Errorf("composite: reading magic: %w", err)
	}
	if magic != compositeMagic {
		return nil, fmt.Errorf("composite: bad magic %#x", magic)
	}
	if err := binary.Read(br, le, &k); err != nil {
		return nil, fmt.Errorf("composite: reading partition count: %w", err)
	}
	if k == 0 || k > maxPartitions {
		return nil, fmt.Errorf("composite: stored partition count %d out of range [1,%d]", k, maxPartitions)
	}
	parts := make([]*partition.Partition, 0, k)
	for j := uint32(0); j < k; j++ {
		p, err := partition.Read(br, g)
		if err != nil {
			return nil, fmt.Errorf("composite: partition %d: %w", j, err)
		}
		parts = append(parts, p)
	}
	return New(g, parts)
}
