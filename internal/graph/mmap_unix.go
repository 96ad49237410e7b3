//go:build unix

package graph

import (
	"fmt"
	"os"
	"syscall"
)

// Mapping owns the mmap'd bytes backing a flat-format Graph. The Graph
// returned by MapFlatBinary aliases the mapping; Close unmaps it and
// every adjacency slice becomes invalid, so close only after the graph
// is no longer referenced.
type Mapping struct {
	data []byte
}

// Close unmaps the file.
func (m *Mapping) Close() error {
	if m == nil || m.data == nil {
		return nil
	}
	data := m.data
	m.data = nil
	return syscall.Munmap(data)
}

// MapFlatBinary memory-maps a WriteFlatBinary file read-only and
// returns a Graph whose four CSR arrays alias the mapping — zero
// copies, zero decode, resident pages shared across processes. The
// whole file is validated (see validateFlat) before the graph is
// returned, so a corrupt file yields an error, never a panic in some
// later traversal. The caller must keep the Mapping alive for the
// graph's lifetime and Close it afterwards.
func MapFlatBinary(path string) (*Graph, *Mapping, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	size := st.Size()
	if size < flatHeaderLen {
		return nil, nil, fmt.Errorf("graph: flat file is %d bytes, want at least %d", size, flatHeaderLen)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, fmt.Errorf("graph: mmap %s: %w", path, err)
	}
	mp := &Mapping{data: data}
	g, err := flatFromBytes(data)
	if err != nil {
		mp.Close()
		return nil, nil, err
	}
	return g, mp, nil
}
