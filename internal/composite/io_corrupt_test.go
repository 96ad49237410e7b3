package composite

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"adp/internal/partitioner"
)

// validCompositeBytes serialises a small real composite for the
// corruption fixtures to damage.
func validCompositeBytes(t testing.TB) []byte {
	t.Helper()
	g := testGraph()
	base, err := partitioner.FennelEdgeCut(g, 3, partitioner.FennelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	comp, _, err := ME2H(base, batchModels(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, comp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCompositeReadCorruptFixtures damages a valid stream in targeted
// ways and requires Read to fail with a contextual error — naming the
// header field or partition at fault — rather than panic or return a
// malformed composite.
func TestCompositeReadCorruptFixtures(t *testing.T) {
	valid := validCompositeBytes(t)
	g := testGraph()

	cases := []struct {
		name string
		mut  func(b []byte) []byte
		want string // substring the error must carry
	}{
		{"empty stream", func(b []byte) []byte { return nil }, "reading magic"},
		{"truncated magic", func(b []byte) []byte { return b[:3] }, "reading magic"},
		{"flipped magic", func(b []byte) []byte { b[1] ^= 0x10; return b }, "bad magic"},
		{"truncated before k", func(b []byte) []byte { return b[:5] }, "reading partition count"},
		{"zero partitions", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:], 0)
			return b
		}, "out of range"},
		{"absurd partition count", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:], 1<<30)
			return b
		}, "out of range"},
		{"count just past cap", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:], 33)
			return b
		}, "out of range"},
		{"truncated first partition", func(b []byte) []byte { return b[:12] }, "partition 0"},
		{"truncated mid stream", func(b []byte) []byte { return b[:len(b)/2] }, "partition"},
		{"extra trailing partition expected", func(b []byte) []byte {
			k := binary.LittleEndian.Uint32(b[4:])
			binary.LittleEndian.PutUint32(b[4:], k+1)
			return b
		}, "partition"},
		{"flipped partition magic", func(b []byte) []byte { b[8] ^= 0xFF; return b }, "partition 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mut(append([]byte(nil), valid...))
			_, err := Read(bytes.NewReader(data), g)
			if err == nil {
				t.Fatal("corrupt stream accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// FuzzCompositeRead throws arbitrary bytes at Read: it must never
// panic, and any composite it does accept must satisfy the full
// coherence-index invariant.
func FuzzCompositeRead(f *testing.F) {
	valid := validCompositeBytes(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	tampered := append([]byte(nil), valid...)
	tampered[len(tampered)/3] ^= 0x44
	f.Add(tampered)

	g := testGraph()
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Read(bytes.NewReader(data), g)
		if err != nil {
			return
		}
		if err := c.ValidateIndex(); err != nil {
			t.Fatalf("accepted composite fails validation: %v", err)
		}
	})
}
