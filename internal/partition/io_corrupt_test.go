package partition

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"

	"adp/internal/graph"
)

// corruptFixture serialises the Fig. 1(b) partition for byte-patching.
// Wire layout: magic u32 @0, n u32 @4, nv u32 @8, then per fragment
// {arcs u32, pairs arcs×[2]u32, loners u32, loner ids}, then owner and
// master as nv×i32 (the last 2·nv·4 bytes).
func corruptFixture(t *testing.T) (*graph.Graph, []byte) {
	t.Helper()
	g := figure1G1(t)
	p := figure1bPartition(t, g)
	// The byte offsets in TestPartitionReadCorrupt assume F1 stores 9
	// arcs and neither fragment has loners; guard against fixture drift.
	if p.Fragment(0).NumArcs() != 9 {
		t.Fatalf("fixture drift: F1 stores %d arcs, offsets assume 9", p.Fragment(0).NumArcs())
	}
	var buf bytes.Buffer
	if err := Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	return g, buf.Bytes()
}

func TestPartitionReadCorrupt(t *testing.T) {
	g, valid := corruptFixture(t)
	nv := g.NumVertices()
	ownerOff := len(valid) - 2*4*nv // owner array
	masterOff := len(valid) - 4*nv  // master array
	frag0ArcsOff := 12              // first fragment's arc count
	frag0LonersOff := 12 + 4 + 9*8  // F1 stores 9 arcs, then its loner count
	patch := func(off int, v uint32) []byte {
		b := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint32(b[off:], v)
		return b
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "header"},
		{"truncated header", valid[:7], "header"},
		{"bad magic", patch(0, 0xdeadbeef), "magic"},
		{"zero fragments", patch(4, 0), "fragment count"},
		{"fragment count over cap", patch(4, 1<<24), "fragment count"},
		{"vertex count mismatch", patch(8, 99), "graph has"},
		{"arc count over graph size", patch(frag0ArcsOff, 1000), "fragment 0: unexpected EOF"},
		{"arc vertex out of range", patch(frag0ArcsOff+4, 9999), "beyond 10 vertices"},
		{"loner count over graph size", patch(frag0LonersOff, 1000), "declares 1000 loners"},
		{"truncated mid-fragment", valid[:frag0ArcsOff+6], "fragment 0"},
		{"truncated owner map", valid[:ownerOff+4], "owner map"},
		{"truncated master map", valid[:masterOff+4], "master map"},
		{"owner out of range", patch(ownerOff, 7), "owner of vertex 0"},
		{"master out of range", patch(masterOff, 7), "master of vertex 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Read(bytes.NewReader(tc.data), g)
			if err == nil {
				t.Fatal("corrupt input accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestPartitionReadWrapsIOError: truncation must surface the underlying
// io error through the %w chain.
func TestPartitionReadWrapsIOError(t *testing.T) {
	g, valid := corruptFixture(t)
	_, err := Read(bytes.NewReader(valid[:len(valid)-2]), g)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("error %v does not wrap io.ErrUnexpectedEOF", err)
	}
}

// FuzzPartitionRead: arbitrary bytes must never panic the reader, and
// any accepted partition must survive a write/read round trip with its
// fragment shapes intact (the round trip re-validates every id it
// stored).
func FuzzPartitionRead(f *testing.F) {
	g := figure1G1(f)
	p := figure1bPartition(f, g)
	var seed bytes.Buffer
	if err := Write(&seed, p); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add(make([]byte, 64))
	truncated := append([]byte(nil), seed.Bytes()...)
	f.Add(truncated[:len(truncated)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := Read(bytes.NewReader(data), g)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, q); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		q2, err := Read(&buf, g)
		if err != nil {
			t.Fatalf("round trip parse failed: %v", err)
		}
		for i := 0; i < q.NumFragments(); i++ {
			if q.Fragment(i).NumArcs() != q2.Fragment(i).NumArcs() ||
				q.Fragment(i).NumVertices() != q2.Fragment(i).NumVertices() {
				t.Fatalf("fragment %d shape changed in round trip", i)
			}
		}
	})
}
