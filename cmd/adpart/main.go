// Command adpart partitions a graph for a given algorithm (or the
// five-algorithm batch) and reports the resulting quality and cost
// metrics: the end-to-end application-driven pipeline of the paper.
//
// Usage:
//
//	adpart -graph twitter -n 8 -base Fennel -algo CN
//	adpart -graph path/to/edges.txt -n 4 -base Grid -algo batch
//	adpart -graph big.txt -n 8 -stream
//	adpart -graph big.txt -saveflat big.flat && adpart -graph big.flat -mmap
//	adpart -algo batch -store state/ -updates stream.txt
//	adpart -fsck state/ [-repair]
//
// The graph is either a named synthetic stand-in (social, twitter,
// web, road) or a path to an edge-list file (see internal/graph).
// Big-graph data plane: -stream ingests edge-list files with the
// chunk-parallel loader and runs streaming Fennel during the build
// (the baseline partition exists the moment the graph does);
// -saveflat writes the loaded graph as a flat binary CSR, which -mmap
// then serves zero-copy from page cache.
// -updates applies an edge-update stream ("+ u v [dests]", "- u v",
// "commit" — the WAL record grammar spelled out); -store keeps the
// batch composite in a crash-consistent on-disk store; -fsck checks a
// store directory frame by frame and -repair truncates damage away.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
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
	"adp/internal/prof"
	"adp/internal/refine"
	"adp/internal/store"
)

func main() { os.Exit(run(os.Args[1:])) }

// run is main with an exit code instead of os.Exit, so the deferred
// profile stop runs on every path, failures included.
func run(args []string) int {
	fs := flag.NewFlagSet("adpart", flag.ExitOnError)
	var (
		graphName = fs.String("graph", "social", "named graph (social|twitter|web|road) or edge-list file path")
		n         = fs.Int("n", 4, "number of fragments")
		baseName  = fs.String("base", "Fennel", "baseline partitioner (xtraPuLP|Fennel|Grid|NE|Ginger|TopoX|Hash)")
		algoName  = fs.String("algo", "PR", "target algorithm (CN|TC|WCC|PR|SSSP) or 'batch' for the composite")
		symmetric = fs.Bool("undirected", false, "symmetrise the graph (required for TC)")
		savePath  = fs.String("save", "", "write the refined partition to this file")
		workers   = fs.Int("workers", 0, "worker-pool size for refinement and simulation (0 = GOMAXPROCS, 1 = single-threaded)")
		timeout   = fs.Duration("timeout", 0, "abort the run after this duration (0 = no timeout)")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile to this path")
		memProf   = fs.String("memprofile", "", "write a heap profile to this path on exit")
		updates   = fs.String("updates", "", "apply an edge-update stream from this file ('+ u v [dests]', '- u v', 'commit')")
		storeDir  = fs.String("store", "", "with -algo batch: keep the composite in a crash-consistent store at this directory")
		fsckDir   = fs.String("fsck", "", "check the store at this directory and exit (0 healthy, 1 damaged)")
		repair    = fs.Bool("repair", false, "with -fsck: truncate damaged or un-acked log tails in place")
		fsckJSON  = fs.Bool("json", false, "with -fsck: emit the machine-readable report instead of the text format")
		stream    = fs.Bool("stream", false, "one-pass ingest: run streaming Fennel while the graph builds (implies -base Fennel)")
		useMmap   = fs.Bool("mmap", false, "load -graph as a flat binary CSR via mmap (write one with -saveflat)")
		saveFlat  = fs.String("saveflat", "", "write the loaded graph in flat binary CSR format to this path and continue")
	)
	fs.Parse(args)
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "adpart: -workers must be >= 0 (got %d)\n", *workers)
		return 2
	}
	if *fsckDir != "" {
		// Deep snapshot verification needs the graph the store was built
		// over; only use one the caller named explicitly.
		graphSet := false
		fs.Visit(func(f *flag.Flag) { graphSet = graphSet || f.Name == "graph" })
		rep, err := runFsck(*fsckDir, *repair, *graphName, *symmetric, graphSet)
		if err != nil {
			return fail(err)
		}
		if *fsckJSON {
			if err := rep.WriteJSON(os.Stdout); err != nil {
				return fail(err)
			}
		} else {
			rep.Format(os.Stdout)
		}
		if !rep.Healthy() {
			return 1
		}
		return 0
	}
	if *workers != 0 {
		pool.SetDefaultWorkers(*workers)
	}
	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		return fail(err)
	}
	defer stopProf()
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	loadStart := time.Now()
	g, st, mapping, err := loadGraph(*graphName, *symmetric, *useMmap, *stream, *n)
	if err != nil {
		return fail(err)
	}
	if mapping != nil {
		defer mapping.Close()
		fmt.Printf("graph mapped zero-copy in %v\n", time.Since(loadStart).Round(time.Millisecond))
	}
	fmt.Printf("graph: %v\n", graph.ComputeStats(g))
	if *saveFlat != "" {
		if err := writeFlat(*saveFlat, g); err != nil {
			return fail(err)
		}
		fmt.Printf("flat CSR written to %s (%d bytes; load it with -mmap)\n", *saveFlat, graph.FixedSizeBytes(g))
	}

	var spec partitioner.Spec
	var base *partition.Partition
	if *stream {
		spec, _ = partitioner.ByName("Fennel")
		start := time.Now()
		if st != nil {
			// The stream already ran during ingestion; materialising the
			// partition is all that is left.
			base, err = st.Partition(g)
		} else {
			// Streamed over the built graph, Fennel is FennelEdgeCut.
			base, err = partitioner.FennelEdgeCut(g, *n, partitioner.FennelConfig{})
		}
		if err != nil {
			return fail(err)
		}
		where := "over built graph"
		if st != nil {
			where = "during ingest"
		}
		fmt.Printf("baseline streaming Fennel (%s, materialised in %v): %s\n",
			where, time.Since(start).Round(time.Millisecond), metricsLine(base))
	} else {
		var ok bool
		spec, ok = partitioner.ByName(*baseName)
		if !ok {
			return fail(fmt.Errorf("unknown baseline %q", *baseName))
		}
		start := time.Now()
		base, err = spec.Run(g, *n)
		if err != nil {
			return fail(err)
		}
		fmt.Printf("baseline %s (%s) in %v: %s\n", spec.Name, spec.Family, time.Since(start).Round(time.Millisecond), metricsLine(base))
	}

	var muts []store.Mutation
	if *updates != "" {
		muts, err = loadUpdates(*updates)
		if err != nil {
			return fail(err)
		}
	}
	if strings.EqualFold(*algoName, "batch") {
		if err := runBatch(base, spec, muts, *storeDir); err != nil {
			return fail(err)
		}
		return 0
	}
	algo, err := parseAlgo(*algoName)
	if err != nil {
		return fail(err)
	}
	model := costmodel.Reference(algo)
	before := costmodel.Evaluate(base, model)
	refined := base.CloneCOW()
	start := time.Now()
	stats := refine.ForFamily(spec.Family, refined, model, refine.Config{})
	if stats == nil {
		fmt.Println("hybrid baseline: no refinement applied")
		return 0
	}
	after := costmodel.Evaluate(refined, model)
	fmt.Printf("refined for %v in %v: %s\n", algo, stats.Total.Round(time.Millisecond), metricsLine(refined))
	fmt.Printf("  migrated=%d splitEdges=%d merged=%d mastersMoved=%d\n",
		stats.Migrated, stats.SplitEdges, stats.Merged, stats.MastersMoved)
	fmt.Printf("  parallel cost (model): %.4g -> %.4g (%.2fx)\n",
		costmodel.ParallelCost(before), costmodel.ParallelCost(after),
		costmodel.ParallelCost(before)/costmodel.ParallelCost(after))
	fmt.Printf("  cost balance λ%v: %.2f -> %.2f\n", algo,
		costmodel.LambdaCost(before), costmodel.LambdaCost(after))
	if err := refined.Validate(); err != nil {
		return fail(fmt.Errorf("refined partition failed validation: %w", err))
	}
	if len(muts) > 0 {
		// A single partition is a k = 1 composite: the stream goes through
		// the same coherent insert/delete fold as batch mode and the store.
		comp, err := composite.New(g, []*partition.Partition{refined})
		if err != nil {
			return fail(err)
		}
		if err := foldUpdates(comp, muts); err != nil {
			return fail(err)
		}
		upd := costmodel.Evaluate(refined, model)
		fmt.Printf("  updated metrics: %s, parallel cost %.4g\n", metricsLine(refined), costmodel.ParallelCost(upd))
	}
	// Simulate the target algorithm over the refined partition.
	start = time.Now()
	out, err := algorithms.Run(engine.NewCluster(refined).Configure(engine.Options{Context: ctx}), algo,
		algorithms.Options{SSSPSource: 1, PRIterations: 5})
	if err != nil {
		return fail(fmt.Errorf("simulated %v run: %w", algo, err))
	}
	fmt.Printf("  simulated %v run in %v: cost=%.4g supersteps=%d\n",
		algo, time.Since(start).Round(time.Millisecond),
		out.Report.SimCost(engine.DefaultBytesWeight), out.Report.Supersteps)
	if *savePath != "" {
		f, err := os.Create(*savePath)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := partition.Write(f, refined); err != nil {
			return fail(err)
		}
		fmt.Printf("  partition written to %s\n", *savePath)
	}
	return 0
}

func runBatch(base *partition.Partition, spec partitioner.Spec, muts []store.Mutation, storeDir string) error {
	start := time.Now()
	comp, _, err := composite.ForFamily(spec.Family, base, costmodel.ReferenceModels(), composite.Options{})
	if err != nil {
		return fmt.Errorf("batch mode: %w", err)
	}
	fmt.Printf("composite for %v in %v\n", costmodel.Algos(), time.Since(start).Round(time.Millisecond))

	if storeDir != "" {
		// Durable mode: the composite lives in the crash-consistent
		// store, and updates flow through its WAL. A directory that
		// already holds a store is recovered instead of recreated.
		st, err := store.Create(storeDir, comp, store.Options{})
		if err != nil {
			var info *store.RecoveryInfo
			st, info, err = store.Open(storeDir, base.Graph(), store.Options{})
			if err != nil {
				return err
			}
			fmt.Printf("  store: %v\n", info)
			comp = st.Composite()
		} else {
			fmt.Printf("  store: created at %s (snapshot lsn=0)\n", storeDir)
		}
		if len(muts) > 0 {
			ins, del, err := st.Apply(muts)
			if err != nil {
				return fmt.Errorf("applying updates through store: %w", err)
			}
			fmt.Printf("  updates: +%d -%d committed durably (lsn=%d)\n", ins, del, st.LSN())
		}
		if err := st.Snapshot(); err != nil {
			return err
		}
		if err := st.Close(); err != nil {
			return err
		}
	} else if len(muts) > 0 {
		if err := foldUpdates(comp, muts); err != nil {
			return err
		}
	}
	fmt.Printf("  fc=%.2f composite=%d arcs, separate=%d arcs (%.0f%% saved)\n",
		comp.FC(), comp.StorageArcs(), comp.SeparateStorageArcs(),
		(1-float64(comp.StorageArcs())/float64(comp.SeparateStorageArcs()))*100)
	for _, a := range costmodel.Algos() {
		costs := costmodel.Evaluate(comp.Partition(comp.PartitionFor(a)), costmodel.Reference(a))
		fmt.Printf("  %-4v parallel cost %.4g, λ=%.2f\n", a,
			costmodel.ParallelCost(costs), costmodel.LambdaCost(costs))
	}
	return nil
}

// foldUpdates drives an update stream through the coherent in-memory
// composite path (store.Fold): every bundled partition sees every edge
// change, with locality routing standing in for absent destinations.
func foldUpdates(c *composite.Composite, muts []store.Mutation) error {
	ins, del, err := store.Fold(c, muts)
	if err != nil {
		return fmt.Errorf("applying updates: %w", err)
	}
	if err := c.ValidateIndex(); err != nil {
		return fmt.Errorf("composite incoherent after updates: %w", err)
	}
	fmt.Printf("  updates: +%d -%d applied coherently\n", ins, del)
	return nil
}

func loadUpdates(path string) ([]store.Mutation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return store.ParseUpdates(f)
}

// runFsck classifies the store at dir. With deep set the graph is
// loaded and snapshots are fully parsed and index-validated; otherwise
// only frame-level WAL integrity and snapshot readability are checked.
func runFsck(dir string, repair bool, graphName string, symmetric, deep bool) (*store.FsckReport, error) {
	var g *graph.Graph
	if deep {
		var err error
		g, err = gen.Load(graphName, symmetric)
		if err != nil {
			return nil, err
		}
	}
	return store.Fsck(dir, g, repair)
}

// loadGraph is gen.Load extended with the big-graph ingest paths:
// mmap serves a flat binary CSR zero-copy, and stream runs streaming
// Fennel while an edge-list file parses and builds (the returned
// FennelStream is non-nil exactly when that happened — synthetic or
// symmetrised graphs stream after the build instead, since the
// assignment must see the graph the run will use).
func loadGraph(name string, symmetric, useMmap, stream bool, frags int) (*graph.Graph, *partitioner.FennelStream, *graph.Mapping, error) {
	if useMmap {
		g, mapping, err := graph.MapFlatBinary(name)
		if err != nil {
			return nil, nil, nil, err
		}
		if symmetric && !g.Undirected() {
			sg := graph.Symmetrize(g)
			mapping.Close()
			return sg, nil, nil, nil
		}
		return g, nil, mapping, nil
	}
	if stream && !symmetric && !gen.IsNamed(name) {
		f, err := os.Open(name)
		if err != nil {
			return nil, nil, nil, err
		}
		defer f.Close()
		st := partitioner.NewFennelStream(frags, partitioner.FennelConfig{})
		g, err := graph.ParallelReadEdgeListStreaming(f, graph.LoadOptions{}, st)
		if err != nil {
			return nil, nil, nil, err
		}
		return g, st, nil, nil
	}
	g, err := gen.Load(name, symmetric)
	return g, nil, nil, err
}

func writeFlat(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := graph.WriteFlatBinary(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func parseAlgo(s string) (costmodel.Algo, error) {
	for _, a := range costmodel.Algos() {
		if strings.EqualFold(a.String(), s) {
			return a, nil
		}
	}
	return 0, fmt.Errorf("unknown algorithm %q", s)
}

func metricsLine(p *partition.Partition) string {
	m := p.ComputeMetrics()
	return fmt.Sprintf("fv=%.2f fe=%.2f λv=%.2f λe=%.2f", m.FV, m.FE, m.LambdaV, m.LambdaE)
}

// fail reports err and returns the failure exit code.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "adpart:", err)
	return 1
}
