//go:build !unix

package graph

import "os"

// Mapping is a placeholder on platforms without mmap support.
type Mapping struct{}

// Close is a no-op on platforms without mmap support.
func (m *Mapping) Close() error { return nil }

// MapFlatBinary reads a WriteFlatBinary file into memory where mmap is
// unavailable; the graph aliases that buffer and is validated the same
// way.
func MapFlatBinary(path string) (*Graph, *Mapping, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	g, err := flatFromBytes(data)
	if err != nil {
		return nil, nil, err
	}
	return g, &Mapping{}, nil
}
