package composite

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"adp/internal/costmodel"
	"adp/internal/gen"
	"adp/internal/graph"
	"adp/internal/partition"
	"adp/internal/partitioner"
	"adp/internal/pool"
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

// TestCompositeGoldenBuilds holds every build to the recorded goldens
// at 1, 4 and NumCPU pool workers: the per-algorithm sections run on
// the shared pool, and the output must not depend on its size.
func TestCompositeGoldenBuilds(t *testing.T) {
	t.Cleanup(func() { pool.SetDefaultWorkers(0) })
	for _, w := range []int{1, 4, runtime.NumCPU()} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			pool.SetDefaultWorkers(w)
			checkCompositeGoldens(t)
		})
	}
}

func checkCompositeGoldens(t *testing.T) {
	models := costmodel.ReferenceModels()
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

// TestCompositeBuildsLeaveCompiledPartitions: a build compiles its
// target partitions at every section boundary, the last one included,
// so every fragment of every bundled partition comes out compiled and
// neither New's index merge nor engine.NewCluster has anything to fold.
func TestCompositeBuildsLeaveCompiledPartitions(t *testing.T) {
	models := costmodel.ReferenceModels()
	for _, directed := range []bool{true, false} {
		g := gen.PowerLaw(gen.PowerLawConfig{N: 500, AvgDeg: 6, Exponent: 2.2, Directed: directed, Seed: 41})
		ec, err := partitioner.FennelEdgeCut(g, 5, partitioner.FennelConfig{})
		if err != nil {
			t.Fatal(err)
		}
		vc, err := partitioner.GridVertexCut(g, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, naive := range []bool{false, true} {
			opts := Options{NaiveDest: naive}
			for name, build := range map[string]func() (*Composite, *BuildStats, error){
				"ME2H": func() (*Composite, *BuildStats, error) { return ME2H(ec, models, opts) },
				"MV2H": func() (*Composite, *BuildStats, error) { return MV2H(vc, models, opts) },
			} {
				c, _, err := build()
				if err != nil {
					t.Fatal(err)
				}
				for j, p := range c.Partitions() {
					for i := 0; i < p.NumFragments(); i++ {
						if !p.Fragment(i).Compiled() {
							t.Errorf("directed=%v %s naive=%v: partition %d fragment %d left uncompiled", directed, name, naive, j, i)
						}
					}
				}
			}
		}
	}
}

// BenchmarkCompositeBuild times the build half of the composite_build
// workload: ME2H over a Fennel edge-cut and MV2H over a Grid vertex-cut
// of a 6000-vertex power-law graph, 8 fragments, for the five reference
// models. me2h-ms/op and mv2h-ms/op split the total; B/op and
// allocs/op count both builds.
func BenchmarkCompositeBuild(b *testing.B) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 6000, AvgDeg: 8, Exponent: 2.1, Seed: 1})
	ec, err := partitioner.FennelEdgeCut(g, 8, partitioner.FennelConfig{})
	if err != nil {
		b.Fatal(err)
	}
	vc, err := partitioner.GridVertexCut(g, 8)
	if err != nil {
		b.Fatal(err)
	}
	models := costmodel.ReferenceModels()
	var me2h, mv2h time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, _, err := ME2H(ec, models, Options{}); err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		if _, _, err := MV2H(vc, models, Options{}); err != nil {
			b.Fatal(err)
		}
		me2h, mv2h = me2h+t1.Sub(t0), mv2h+time.Since(t1)
	}
	b.ReportMetric(float64(me2h.Milliseconds())/float64(b.N), "me2h-ms/op")
	b.ReportMetric(float64(mv2h.Milliseconds())/float64(b.N), "mv2h-ms/op")
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
