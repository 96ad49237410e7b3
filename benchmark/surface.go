package main

// surface.go is the only file of the benchmark that imports
// adp/internal/...: every call into the program under test goes through
// one of the thin adapters below, so an API that a later PR removes or
// renames costs a change to this one file. It deliberately does not
// import internal/bench and calls nothing ROADMAP items 4-5 schedule for
// deletion (Clone, FullClonePublish, pool.Unbounded, CloneCOW/Compile
// called directly, partition.Read*, graph.ReadBinary/WriteBinary, the
// compressed formats).

import (
	"context"
	"io"
	"net"
	"net/http"
	"time"

	"adp/internal/algorithms"
	"adp/internal/composite"
	"adp/internal/costmodel"
	"adp/internal/engine"
	"adp/internal/gen"
	"adp/internal/graph"
	"adp/internal/partition"
	"adp/internal/partitioner"
	"adp/internal/pool"
	"adp/internal/refine"
	"adp/internal/serve"
	"adp/internal/store"
)

// Opaque handles for the rest of the benchmark.
type (
	Graph     = graph.Graph
	VertexID  = graph.VertexID
	Partition = partition.Partition
	Composite = composite.Composite
	Cluster   = engine.Cluster
	Algo      = costmodel.Algo
	CostModel = costmodel.CostModel
	Store     = store.Store
	Server    = serve.Server
	Mutation  = store.Mutation
	Mapping   = graph.Mapping
)

const fragments = 8 // n of every partition the benchmark builds

var algoOpts = algorithms.Options{PRIterations: 10, SSSPSource: 1}

// ---- graph ----

func genPowerLaw(n int, directed bool, seed int64) *Graph {
	return gen.PowerLaw(gen.PowerLawConfig{N: n, AvgDeg: 8, Exponent: 2.1, Directed: directed, Seed: seed})
}

// genPowerLawBig is the chunk-parallel generator, for the ingest input.
func genPowerLawBig(n int, seed int64) *Graph {
	return gen.PowerLawChunked(gen.PowerLawConfig{N: n, AvgDeg: 8, Exponent: 2.1, Directed: true, Seed: seed}, 0)
}

func numVertices(g *Graph) int              { return g.NumVertices() }
func numArcs(g *Graph) int64                { return g.NumEdges() }
func outNeighbors(g *Graph, v int) []uint32 { return g.OutNeighbors(VertexID(v)) }

func writeEdgeList(w io.Writer, g *Graph) error   { return graph.WriteEdgeList(w, g) }
func writeFlatBinary(w io.Writer, g *Graph) error { return graph.WriteFlatBinary(w, g) }
func mapFlatBinary(path string) (*Graph, *Mapping, error) {
	return graph.MapFlatBinary(path)
}

// loadStreaming parses a text edge list chunk-parallel while a
// streaming Fennel places every vertex, then builds the flat partition.
// The two steps are reported separately.
func loadStreaming(r io.Reader) (g *Graph, finish func() (*Partition, error), err error) {
	st := partitioner.NewFennelStream(fragments, partitioner.FennelConfig{})
	g, err = graph.ParallelReadEdgeListStreaming(r, graph.LoadOptions{}, st)
	if err != nil {
		return nil, nil, err
	}
	return g, func() (*Partition, error) { return st.Partition(g) }, nil
}

// ---- partitioner / refine / costmodel ----

func algos() []Algo { return costmodel.Algos() }

func referenceModels() []CostModel {
	var ms []CostModel
	for _, a := range costmodel.Algos() {
		ms = append(ms, costmodel.Reference(a))
	}
	return ms
}

func fennelEdgeCut(g *Graph) (*Partition, error) {
	return partitioner.FennelEdgeCut(g, fragments, partitioner.FennelConfig{})
}

func gridVertexCut(g *Graph) (*Partition, error) {
	return partitioner.GridVertexCut(g, fragments)
}

// refineStats is refine.Stats: the figures that must repeat exactly, and
// the three phase durations.
type refineStats struct {
	Budget                                     float64
	Migrated, SplitEdges, Merged, MastersMoved int
	Phases                                     [3]time.Duration
}

func refineConfig(serial bool) refine.Config {
	if serial {
		return refine.Config{Pool: pool.Serial()}
	}
	return refine.Config{}
}

func toRefineStats(s *refine.Stats) refineStats {
	return refineStats{s.Budget, s.Migrated, s.SplitEdges, s.Merged, s.MastersMoved, s.PhaseDurations}
}

func parE2H(p *Partition, m CostModel, serial bool) refineStats {
	return toRefineStats(refine.ParE2H(p, m, refineConfig(serial)))
}

func parV2H(p *Partition, m CostModel, serial bool) refineStats {
	return toRefineStats(refine.ParV2H(p, m, refineConfig(serial)))
}

// modelledCost is the cost model's own estimate of the parallel cost of
// running the algorithm m models on p.
func modelledCost(p *Partition, m CostModel) float64 {
	return costmodel.ParallelCost(costmodel.Evaluate(p, m))
}

func validatePartition(p *Partition) error { return p.Validate() }
func storageArcs(p *Partition) int         { return p.StorageArcs() }

// cutArcShare is the share of g's arcs whose endpoints p masters in
// different fragments.
func cutArcShare(g *Graph, p *Partition) float64 {
	cut := 0
	g.Edges(func(u, v VertexID) bool {
		if p.Master(u) != p.Master(v) {
			cut++
		}
		return true
	})
	return float64(cut) / float64(g.NumEdges())
}

// ---- engine / algorithms ----

// outcome is one run of an algorithm: the partition-independent result
// and the deterministic engine figures.
type outcome struct {
	Value      float64
	Checksum   uint64
	SimCost    float64
	Supersteps int
	MsgBytes   int64
}

func newCluster(p *Partition, serial bool) *Cluster {
	c := engine.NewCluster(p)
	if serial {
		c.UsePool(pool.Serial())
	}
	return c
}

func runAlgo(c *Cluster, a Algo) (outcome, error) {
	out, err := algorithms.Run(c, a, algoOpts)
	if err != nil {
		return outcome{}, err
	}
	return outcome{out.Value, out.Checksum, out.Report.SimCost(engine.DefaultBytesWeight),
		out.Report.Supersteps, out.Report.TotalMsgBytes()}, nil
}

func seqOutcome(g *Graph, a Algo) outcome {
	out := algorithms.SeqOutcome(g, a, algoOpts)
	return outcome{Value: out.Value, Checksum: out.Checksum}
}

// ---- composite ----

type compositeStats struct{ InitShared, StorageArcs int }

func buildME2H(base *Partition, models []CostModel) (*Composite, compositeStats, error) {
	c, st, err := composite.ME2H(base, models, composite.Options{})
	if err != nil {
		return nil, compositeStats{}, err
	}
	return c, compositeStats{st.InitShared, c.StorageArcs()}, nil
}

func buildMV2H(base *Partition, models []CostModel) (*Composite, compositeStats, error) {
	c, st, err := composite.MV2H(base, models, composite.Options{})
	if err != nil {
		return nil, compositeStats{}, err
	}
	return c, compositeStats{st.InitShared, c.StorageArcs()}, nil
}

func compositeFC(c *Composite) float64                 { return c.FC() }
func compositePart(c *Composite, j int) *Partition     { return c.Partition(j) }
func compositesEqual(a, b *Composite) error            { return a.EqualState(b) }
func parseUpdates(r io.Reader) ([]Mutation, error)     { return store.ParseUpdates(r) }
func applyUpdates(st *Store, m []Mutation) error       { _, _, err := st.Apply(m); return err }
func storeComposite(st *Store) *Composite              { return st.Composite() }
func currentComposite(s *Server) *Composite            { c, _ := s.CurrentComposite(); return c }
func serverHandler(s *Server) http.Handler             { return s.Handler() }
func drainServer(ctx context.Context, s *Server) error { return s.Drain(ctx) }

// foldUpdates applies one parsed batch to c the way the store does,
// without the log: deletes, and inserts routed by locality.
func foldUpdates(c *Composite, muts []Mutation) error {
	for _, m := range muts {
		switch m.Kind {
		case store.MutDelete:
			c.DeleteEdge(m.U, m.V)
		case store.MutInsert:
			if err := c.InsertEdge(m.U, m.V, store.RouteDest(c, m.U, m.V)); err != nil {
				return err
			}
		}
	}
	return nil
}

func validateComposite(c *Composite) error {
	if err := c.Validate(); err != nil {
		return err
	}
	return c.ValidateIndex()
}

// lookupVertex is the read sequence the /vertex handler performs per
// bundled partition, called directly.
func lookupVertex(c *Composite, v uint32) int {
	arcs := 0
	for _, p := range c.Partitions() {
		for _, f := range p.Copies(v) {
			_ = p.Status(int(f), v)
		}
		at := p.CompleteFragment(v)
		if at < 0 {
			at = p.Master(v)
		}
		if adj := p.Fragment(at).Adjacency(v); adj != nil {
			arcs += len(adj.Out) + len(adj.In)
		}
	}
	return arcs
}

// ---- store / serve ----

// The daemon is wired exactly like cmd/adserve with its default flags:
// store.Options{} fsyncs on every commit, and the serve.Config values
// are adserve's -sessions, -inflight and -queue defaults.
func createStore(dir string, c *Composite) (*Store, error) {
	return store.Create(dir, c, store.Options{})
}

// openStore recovers the store in dir and reports how many committed
// mutations recovery replayed on top of the snapshot.
func openStore(dir string, g *Graph) (*Store, int, error) {
	st, info, err := store.Open(dir, g, store.Options{})
	if err != nil {
		return nil, 0, err
	}
	return st, info.Replayed, nil
}

func startServer(st *Store) (*Server, string, error) {
	srv, err := serve.New(st, serve.Config{SessionsPerAlgo: 2, MaxInflight: 64, UpdateQueue: 16})
	if err != nil {
		return nil, "", err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Drain(context.Background()) // the listen error is the one to report
		return nil, "", err
	}
	srv.Start(l)
	return srv, "http://" + l.Addr().String(), nil
}
