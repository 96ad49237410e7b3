package partitioner_test

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"adp/internal/gen"
	"adp/internal/graph"
	"adp/internal/partition"
	"adp/internal/partitioner"
)

// TestFennelStreamMatchesBatch pins the streaming Fennel to the batch
// one bit for bit: identical placement on every graph shape and config,
// since the stream's pushed-fragment bookkeeping reconstructs exactly
// the already-assigned-neighbor counts the batch scorer reads.
func TestFennelStreamMatchesBatch(t *testing.T) {
	cfgs := []partitioner.FennelConfig{
		{},
		{Gamma: 1.5, Slack: 1.01}, // tight slack: exercises the at-capacity fallback
		{Gamma: 2.0, Slack: 1.3},
	}
	for _, directed := range []bool{true, false} {
		for seed := int64(0); seed < 3; seed++ {
			g := gen.PowerLaw(gen.PowerLawConfig{N: 400, AvgDeg: 6, Exponent: 2.2, Directed: directed, Seed: seed})
			for _, cfg := range cfgs {
				for _, n := range []int{2, 5, 9} {
					want, err := partitioner.FennelEdgeCut(g, n, cfg)
					if err != nil {
						t.Fatal(err)
					}
					got, err := partitioner.FennelStreamEdgeCut(g, n, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if err := want.EqualPlacement(got); err != nil {
						t.Fatalf("directed=%v seed=%d n=%d cfg=%+v: stream diverges from batch: %v",
							directed, seed, n, cfg, err)
					}
					if err := got.Validate(); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

// ingest writes edges as a text edge list and loads it through
// graph.ParallelReadEdgeListStreaming with st consuming the forward
// stars: the production load-and-partition path.
func ingest(t *testing.T, nv int, edges []graph.Edge, workers int, st *partitioner.FennelStream) *graph.Graph {
	t.Helper()
	text := fmt.Appendf(nil, "# vertices %d directed\n", nv)
	for _, e := range edges {
		text = strconv.AppendUint(text, uint64(e.Src), 10)
		text = append(text, ' ')
		text = strconv.AppendUint(text, uint64(e.Dst), 10)
		text = append(text, '\n')
	}
	g, err := graph.ParallelReadEdgeListStreaming(bytes.NewReader(text), graph.LoadOptions{Workers: workers}, st)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestFennelStreamDuringBuild wires FennelStream into the edge-list
// loader — the production ingest path — and checks the partition it
// produces over the finished graph equals the batch Fennel run
// afterwards.
func TestFennelStreamDuringBuild(t *testing.T) {
	cfg := gen.PowerLawConfig{N: 1200, AvgDeg: 7, Exponent: 2.3, Directed: true, Seed: 4}
	nv, edges := gen.PowerLawChunkedEdges(cfg, 2)
	st := partitioner.NewFennelStream(6, partitioner.FennelConfig{})
	g := ingest(t, nv, edges, 2, st)
	p, err := st.Partition(g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := partitioner.FennelEdgeCut(g, 6, partitioner.FennelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := want.EqualPlacement(p); err != nil {
		t.Fatalf("ingest-time stream diverges from post-hoc batch: %v", err)
	}
}

// TestFennelStreamNotStarted pins the error for using the stream
// without Begin.
func TestFennelStreamNotStarted(t *testing.T) {
	st := partitioner.NewFennelStream(4, partitioner.FennelConfig{})
	g := gen.PowerLaw(gen.PowerLawConfig{N: 10, AvgDeg: 2, Exponent: 2.2, Seed: 1})
	if _, err := st.Partition(g); err == nil {
		t.Fatal("Partition before Begin should error")
	}
}

// TestIngestPipeline is the end-to-end determinism sweep the CI
// ingest-matrix job runs under -race -short: a ~1M-edge chunked
// power-law stream generated, written as an edge list, parsed,
// CSR-built and Fennel-partitioned at workers ∈ {1, 4, NumCPU} must be
// bitwise identical throughout — same graph bytes, same partition
// placement.
func TestIngestPipeline(t *testing.T) {
	cfg := gen.PowerLawConfig{N: 125000, AvgDeg: 8, Exponent: 2.3, Directed: true, Seed: 7}
	const frags = 8
	workersSweep := []int{1, 4, runtime.NumCPU()}

	var refGraph *graph.Graph
	var refPart *partition.Partition
	for _, w := range workersSweep {
		nv, edges := gen.PowerLawChunkedEdges(cfg, w)
		st := partitioner.NewFennelStream(frags, partitioner.FennelConfig{})
		g := ingest(t, nv, edges, w, st)
		p, err := st.Partition(g)
		if err != nil {
			t.Fatal(err)
		}
		if refGraph == nil {
			refGraph, refPart = g, p
			if !testing.Short() {
				if err := g.Validate(); err != nil {
					t.Fatal(err)
				}
				if err := p.Validate(); err != nil {
					t.Fatal(err)
				}
			}
			continue
		}
		if g.NumVertices() != refGraph.NumVertices() || g.NumEdges() != refGraph.NumEdges() {
			t.Fatalf("workers=%d: graph shape (%d,%d) vs (%d,%d)",
				w, g.NumVertices(), g.NumEdges(), refGraph.NumVertices(), refGraph.NumEdges())
		}
		for v := 0; v < g.NumVertices(); v++ {
			vid := graph.VertexID(v)
			if !slices.Equal(g.OutNeighbors(vid), refGraph.OutNeighbors(vid)) ||
				!slices.Equal(g.InNeighbors(vid), refGraph.InNeighbors(vid)) {
				t.Fatalf("workers=%d: adjacency of vertex %d differs from workers=%d",
					w, v, workersSweep[0])
			}
		}
		if err := refPart.EqualPlacement(p); err != nil {
			t.Fatalf("workers=%d: Fennel placement differs from workers=%d: %v", w, workersSweep[0], err)
		}
	}
}

// BenchmarkStreamingIngest is the ingest path apart from the disk: a
// text edge list, as graph.WriteEdgeList writes it, parsed and
// CSR-built while a FennelStream places every vertex, then the flat
// partition built over the finished graph.
func BenchmarkStreamingIngest(b *testing.B) {
	src := gen.PowerLawChunked(gen.PowerLawConfig{N: 50_000, AvgDeg: 8, Exponent: 2.1, Directed: true, Seed: 7}, 0)
	var text bytes.Buffer
	if err := graph.WriteEdgeList(&text, src); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := partitioner.NewFennelStream(8, partitioner.FennelConfig{})
		g, err := graph.ParallelReadEdgeListStreaming(bytes.NewReader(text.Bytes()), graph.LoadOptions{}, st)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := st.Partition(g); err != nil {
			b.Fatal(err)
		}
	}
}
