package partitioner

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"adp/internal/gen"
	"adp/internal/graph"
	"adp/internal/partition"
)

// fennelGolden pins the placements of the two Fennel entry points —
// FNV-64a over every vertex's owner and master, folded over n ∈ {1, 3,
// 8} — to the values the separate objective loops produced before
// they shared one implementation.
var fennelGolden = map[string]uint64{
	"powerlaw/directed/Fennel":   0x64ccac07e179fc75,
	"powerlaw/directed/Stream":   0x64ccac07e179fc75,
	"powerlaw/undirected/Fennel": 0xb53901b00382b8e5,
	"powerlaw/undirected/Stream": 0xb53901b00382b8e5,
	"rmat/directed/Fennel":       0x229b10be4b828705,
	"rmat/directed/Stream":       0x229b10be4b828705,
	"rmat/undirected/Fennel":     0x1f53735d708b7505,
	"rmat/undirected/Stream":     0x1f53735d708b7505,
	"er/directed/Fennel":         0x7fd86611b2427e75,
	"er/directed/Stream":         0x7fd86611b2427e75,
	"er/undirected/Fennel":       0xc1a3dbcc92713e95,
	"er/undirected/Stream":       0xc1a3dbcc92713e95,
}

func TestFennelGoldenPlacements(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"powerlaw", gen.PowerLaw(gen.PowerLawConfig{N: 700, AvgDeg: 6, Exponent: 2.2, Directed: true, Seed: 5})},
		{"rmat", gen.RMAT(gen.RMATConfig{Scale: 9, AvgDeg: 8, A: 0.57, B: 0.19, C: 0.19, Directed: true, Seed: 6})},
		{"er", gen.ErdosRenyi(500, 5, true, 3)},
	}
	runs := []struct {
		name string
		run  func(g *graph.Graph, n int) (*partition.Partition, error)
	}{
		{"Fennel", func(g *graph.Graph, n int) (*partition.Partition, error) { return FennelEdgeCut(g, n, FennelConfig{}) }},
		{"Stream", func(g *graph.Graph, n int) (*partition.Partition, error) {
			return FennelStreamEdgeCut(g, n, FennelConfig{})
		}},
	}
	for _, gr := range graphs {
		for _, dir := range []string{"directed", "undirected"} {
			g := gr.g
			if dir == "undirected" {
				g = graph.Symmetrize(g)
			}
			for _, r := range runs {
				label := gr.name + "/" + dir + "/" + r.name
				h := fnv.New64a()
				for _, n := range []int{1, 3, 8} {
					p, err := r.run(g, n)
					if err != nil {
						t.Fatal(err)
					}
					for v := 0; v < g.NumVertices(); v++ {
						h.Write(binary.LittleEndian.AppendUint64(nil, uint64(p.Owner(graph.VertexID(v)))<<32|uint64(p.Master(graph.VertexID(v)))))
					}
				}
				if got := h.Sum64(); got != fennelGolden[label] {
					t.Errorf("%q: %#016x, recorded %#016x", label, got, fennelGolden[label])
				}
			}
		}
	}
}
