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
			checkSyntheticGoldens(t)
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

// syntheticGolden was recorded on the per-arc overlay build, under
// syntheticModels. Its hash also covers every fragment's packed Out/In
// order (packedHash), which a build can change without moving an arc.
// The cross rows build ME2H over a vertex-cut base and MV2H over an
// edge-cut one, whose base stores a cut arc in two fragments.
var syntheticGolden = map[string]buildGolden{
	"synthetic/directed/ME2H":                   {656, 3199, 422, 0, 0x40118ef7a5c4dcb3, 18432, 0x2264f4ff103c91e5},
	"synthetic/directed/ME2H/naive":             {656, 3076, 2996, 0, 0x4011866e980d2b3a, 18397, 0x6258072bf8e60dc7},
	"synthetic/directed/MV2H":                   {1858, 9120, 0, 17, 0x40025192de8777ec, 9615, 0x6d4d2d00c6599f},
	"synthetic/directed/MV2H/naive":             {1858, 9120, 0, 19, 0x4002484e867e3394, 9596, 0xc05a0e3dfc7ad96c},
	"synthetic/directed/ME2H/vertex-cut base":   {94, 376, 32992, 0, 0x401c27fe896b5cda, 29557, 0x1c0b8d90f6de223f},
	"synthetic/directed/MV2H/edge-cut base":     {656, 3199, 422, 0, 0x401194551c1b11be, 18454, 0xeb1a88f899b42c8b},
	"synthetic/undirected/ME2H":                 {656, 3199, 326, 0, 0x401197ef597ef598, 34624, 0x8413e6d8d4de1b39},
	"synthetic/undirected/ME2H/naive":           {656, 3070, 3068, 0, 0x4011776a2576a257, 34374, 0xa42fd18a0f3fa3ca},
	"synthetic/undirected/MV2H":                 {1759, 7944, 0, 41, 0x40004e0c7ce0c7ce, 16044, 0xd7757148f4cf7a9e},
	"synthetic/undirected/MV2H/naive":           {1759, 7944, 0, 41, 0x40004e0c7ce0c7ce, 16044, 0xd7757148f4cf7a9e},
	"synthetic/undirected/ME2H/vertex-cut base": {126, 504, 30540, 0, 0x401bdce0c7ce0c7d, 54834, 0xb5514e0ef25ebcc5},
	"synthetic/undirected/MV2H/edge-cut base":   {656, 3199, 326, 0, 0x4011a5b93c5b93c6, 34730, 0x67c592bc8ba7db4a},
}

// syntheticModels weigh what no reference hA reads — r (Repl) and
// I (NotECut) — next to dL, so a build whose copy sets or e-cut
// classification drift from the tracker's changes these rows.
func syntheticModels() []costmodel.CostModel {
	model := func(dl, r, i, dlr, dldg float64) costmodel.CostModel {
		return costmodel.CostModel{
			H: costmodel.Func(func(x costmodel.Vars) float64 {
				dL := x[costmodel.DLIn] + x[costmodel.DLOut]
				return dl*dL + r*x[costmodel.Repl] + i*x[costmodel.NotECut] + dlr*dL*x[costmodel.Repl] +
					dldg*dL*(x[costmodel.DGIn]+x[costmodel.DGOut]) + 2e-4
			}),
			G: costmodel.Func(func(x costmodel.Vars) float64 { return 1e-4 * x[costmodel.Repl] * (1 + x[costmodel.NotECut]) }),
		}
	}
	return []costmodel.CostModel{
		model(1e-3, 4e-3, 2e-3, 0, 0),
		model(2e-4, 1e-2, 0, 3e-4, 0),
		model(5e-4, 0, 6e-3, 1e-4, 0),
		model(0, 2e-3, 1e-3, 0, 1e-4),
	}
}

func checkSyntheticGoldens(t *testing.T) {
	models := syntheticModels()
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
		builds := []struct {
			name  string
			build func() (*Composite, *BuildStats, error)
		}{
			{"ME2H", func() (*Composite, *BuildStats, error) { return ME2H(ec, models, Options{}) }},
			{"ME2H/naive", func() (*Composite, *BuildStats, error) { return ME2H(ec, models, Options{NaiveDest: true}) }},
			{"MV2H", func() (*Composite, *BuildStats, error) { return MV2H(vc, models, Options{}) }},
			{"MV2H/naive", func() (*Composite, *BuildStats, error) { return MV2H(vc, models, Options{NaiveDest: true}) }},
			{"ME2H/vertex-cut base", func() (*Composite, *BuildStats, error) { return ME2H(vc, models, Options{}) }},
			{"MV2H/edge-cut base", func() (*Composite, *BuildStats, error) { return MV2H(ec, models, Options{}) }},
		}
		for _, b := range builds {
			label := "synthetic/" + dir + "/" + b.name
			c, st, err := b.build()
			if err != nil {
				t.Fatal(err)
			}
			got := buildGolden{st.InitShared, st.Assigned, st.SplitEdges, st.Merged,
				math.Float64bits(c.FC()), c.StorageArcs(), packedHash(c)}
			if want := syntheticGolden[label]; got != want {
				t.Errorf("%q: %#v, recorded %#v", label, got, want)
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
// models. me2h-ms/op and mv2h-ms/op split the total, and each is split
// again by BuildStats.SectionDurations into the decision sweep
// (-decide), the target build (-build) and section B (-b); B/op and
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
	var total [2]time.Duration
	var sections [2][3]time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for f, build := range []func(*partition.Partition, []costmodel.CostModel, Options) (*Composite, *BuildStats, error){ME2H, MV2H} {
			base := ec
			if f == 1 {
				base = vc
			}
			t0 := time.Now()
			_, st, err := build(base, models, Options{})
			if err != nil {
				b.Fatal(err)
			}
			total[f] += time.Since(t0)
			for s, d := range st.SectionDurations {
				sections[f][s] += d
			}
		}
	}
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 / float64(b.N) }
	for f, name := range []string{"me2h", "mv2h"} {
		b.ReportMetric(ms(total[f]), name+"-ms/op")
		for s, sec := range []string{"decide", "build", "b"} {
			b.ReportMetric(ms(sections[f][s]), name+"-"+sec+"-ms/op")
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

// packedHash folds every bundled partition's compiled arrays — ids,
// each copy's packed Out and In lists in order, the arc keys — and its
// masters and owners into one FNV-64a.
func packedHash(c *Composite) uint64 {
	h := fnv.New64a()
	put := func(x uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, x)) }
	for _, p := range c.Partitions() {
		for i := 0; i < p.NumFragments(); i++ {
			pk := p.Fragment(i).Packed()
			put(uint64(len(pk.IDs)))
			for _, v := range pk.IDs {
				put(uint64(v))
				adj := p.Fragment(i).Adjacency(v)
				for _, w := range adj.Out {
					put(uint64(w))
				}
				put(^uint64(0))
				for _, w := range adj.In {
					put(uint64(w))
				}
				put(^uint64(0))
			}
			for _, k := range p.Fragment(i).AppendSortedArcKeys(nil) {
				put(k)
			}
		}
		for v := 0; v < p.Graph().NumVertices(); v++ {
			put(uint64(p.Owner(graph.VertexID(v)))<<32 | uint64(p.Master(graph.VertexID(v))))
		}
	}
	return h.Sum64()
}
