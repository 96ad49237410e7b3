package composite

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"adp/internal/costmodel"
	"adp/internal/gen"
	"adp/internal/graph"
	"adp/internal/partition"
	"adp/internal/partitioner"
)

// buildGolden is what one composite build must reproduce: the
// BuildStats counters, fc, the composite's storage, and FNV-64a over
// every bundled partition's sorted per-fragment arc keys, masters and
// owners.
type buildGolden struct {
	initShared, assigned, splitEdges, merged int
	fcBits                                   uint64
	storageArcs                              int
	hash                                     uint64
}

// compositeGolden was recorded on the two GetDest copies (vAssign,
// vAssignLocal) and the two fragment BFSes, before each became one.
var compositeGolden = map[string]buildGolden{
	"directed/ME2H":         {655, 3999, 422, 0, 0x40138ca68fc28b9d, 20522, 0xe3413985c13148cd},
	"directed/ME2H/naive":   {655, 3889, 2474, 0, 0x4016a8258e3c5b73, 23784, 0xe6724a093d0a8b53},
	"directed/MV2H":         {1698, 11399, 146, 23, 0x4007c01b502be56b, 12466, 0xfb7a96bd43248985},
	"directed/MV2H/naive":   {1698, 11399, 146, 21, 0x400731b0222436df, 12174, 0xab712e6320631a80},
	"undirected/ME2H":       {655, 3999, 326, 0, 0x4011dda895da895e, 35160, 0x0259419bb72d5a4e},
	"undirected/ME2H/naive": {655, 3878, 2669, 0, 0x4015fc9e2dc9e2dd, 43270, 0xc3dacb993998ec69},
	"undirected/MV2H":       {1289, 9930, 0, 44, 0x40073a46c3a46c3a, 22856, 0x48b1d526a438a375},
	"undirected/MV2H/naive": {1289, 9930, 0, 40, 0x40074748d8748d87, 22906, 0xa6fa43aeb1cfad17},
}

func TestCompositeGoldenBuilds(t *testing.T) {
	var models []costmodel.CostModel
	for _, a := range costmodel.Algos() {
		models = append(models, costmodel.Reference(a))
	}
	for _, dir := range []string{"directed", "undirected"} {
		g := gen.PowerLaw(gen.PowerLawConfig{N: 800, AvgDeg: 6, Exponent: 2.2, Directed: dir == "directed", Seed: 73})
		ec, err := partitioner.FennelEdgeCut(g, 6, partitioner.FennelConfig{})
		if err != nil {
			t.Fatal(err)
		}
		vc, err := partitioner.GridVertexCut(g, 6)
		if err != nil {
			t.Fatal(err)
		}
		for _, naive := range []bool{false, true} {
			builds := []struct {
				name  string
				build func() (*Composite, *BuildStats, error)
			}{
				{"ME2H", func() (*Composite, *BuildStats, error) { return ME2H(ec, models, Options{NaiveDest: naive}) }},
				{"MV2H", func() (*Composite, *BuildStats, error) { return MV2H(vc, models, Options{NaiveDest: naive}) }},
			}
			for _, b := range builds {
				label := dir + "/" + b.name
				if naive {
					label += "/naive"
				}
				c, st, err := b.build()
				if err != nil {
					t.Fatal(err)
				}
				got := buildGolden{st.InitShared, st.Assigned, st.SplitEdges, st.Merged,
					math.Float64bits(c.FC()), c.StorageArcs(), placementHash(c)}
				if want := compositeGolden[label]; got != want {
					t.Errorf("%q: %#v, recorded %#v", label, got, want)
				}
			}
		}
	}
}

// placementHash folds every bundled partition's arcs (per fragment, in
// key order), masters and owners into one FNV-64a.
func placementHash(c *Composite) uint64 {
	h := fnv.New64a()
	put := func(x uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, x)) }
	for _, p := range c.Partitions() {
		for i := 0; i < p.NumFragments(); i++ {
			var keys []uint64
			p.Fragment(i).Vertices(func(v graph.VertexID, adj *partition.Adj) {
				for _, w := range adj.Out {
					keys = append(keys, uint64(v)<<32|uint64(w))
				}
			})
			slices.Sort(keys)
			put(uint64(len(keys)))
			for _, k := range keys {
				put(k)
			}
		}
		for v := 0; v < p.Graph().NumVertices(); v++ {
			put(uint64(p.Owner(graph.VertexID(v)))<<32 | uint64(p.Master(graph.VertexID(v))))
		}
	}
	return h.Sum64()
}
