// Command adserve is the partition-serving daemon: it opens (or
// builds) a durable composite store and serves concurrent sessions
// over HTTP/JSON — algorithm runs, vertex lookups, partition metrics
// and durable edge updates with snapshot-isolated reads.
//
// Usage:
//
//	adserve -store state/ -listen 127.0.0.1:7133
//	adserve -store state/ -graph twitter -n 8 -base Fennel
//
// A directory that already holds a store is recovered (the graph must
// match the one it was built over); an empty one is initialised with
// the five-algorithm batch composite over the named graph. SIGTERM or
// SIGINT drains gracefully: in-flight sessions complete or are
// cancelled after -grace, the WAL is flushed, and the process exits 0.
//
// Endpoints:
//
//	POST /run          {"algo":"PR","timeout_ms":5000,"min_lsn":0,...}
//	GET  /vertex/{id}?min_lsn=N  placement + neighborhood under one epoch
//	GET  /metrics      partition, cost-model, wal and server statistics
//	POST /updates      update-stream body ("+ u v [dests]", "- u v", "commit")
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"adp/internal/composite"
	"adp/internal/costmodel"
	"adp/internal/gen"
	"adp/internal/graph"
	"adp/internal/partitioner"
	"adp/internal/pool"
	"adp/internal/serve"
	"adp/internal/store"
)

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:7133", "listen address")
		storeDir  = flag.String("store", "", "store directory (created with the batch composite when empty)")
		graphName = flag.String("graph", "social", "named graph (social|twitter|web|road) or edge-list file path")
		symmetric = flag.Bool("undirected", false, "symmetrise the graph (required for TC)")
		n         = flag.Int("n", 8, "number of fragments when building a fresh store")
		baseName  = flag.String("base", "Fennel", "baseline partitioner for a fresh store")
		sessions  = flag.Int("sessions", 2, "engine sessions per algorithm")
		inflight  = flag.Int("inflight", 64, "max admitted concurrent /run requests")
		queue     = flag.Int("queue", 16, "max pending update batches")
		timeout   = flag.Duration("timeout", 30*time.Second, "default /run deadline")
		grace     = flag.Duration("grace", 10*time.Second, "drain grace period before cancelling in-flight runs")
		workers   = flag.Int("workers", 0, "engine worker-pool size (0 = GOMAXPROCS)")
	)
	flag.Parse()
	if *storeDir == "" {
		fatal(fmt.Errorf("-store is required"))
	}
	fc := flagConfig{grace: *grace, inflight: *inflight, queue: *queue, workers: *workers}
	if err := validateFlags(fc); err != nil {
		fatal(err)
	}
	if *workers != 0 {
		pool.SetDefaultWorkers(*workers)
	}

	g, err := gen.Load(*graphName, *symmetric)
	if err != nil {
		fatal(err)
	}

	st, err := openOrCreate(*storeDir, g, *baseName, *n)
	if err != nil {
		fatal(err)
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "adserve: "+format+"\n", args...)
	}
	cfg := serve.Config{
		SessionsPerAlgo: *sessions,
		MaxInflight:     *inflight,
		UpdateQueue:     *queue,
		DefaultTimeout:  *timeout,
		Logf:            logf,
	}

	srv, err := serve.New(st, cfg)
	if err != nil {
		fatal(err)
	}
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	srv.Start(l)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	sig := <-sigc
	fmt.Fprintf(os.Stderr, "adserve: %v, draining (grace %v)\n", sig, *grace)
	ctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fatal(fmt.Errorf("drain: %w", err))
	}
	fmt.Fprintln(os.Stderr, "adserve: drained cleanly")
}

// flagConfig is the validated slice of the flag set (kept as a struct
// so the unit tests enumerate bad combinations without a flag.Parse).
type flagConfig struct {
	grace    time.Duration
	inflight int
	queue    int
	workers  int
}

// validateFlags rejects configurations that would only fail later and
// obscurely: a negative grace silently disables the drain's grace
// period, and a non-positive admission or queue limit wedges every
// request.
func validateFlags(c flagConfig) error {
	if c.grace < 0 {
		return fmt.Errorf("-grace must be >= 0 (got %v)", c.grace)
	}
	if c.inflight <= 0 {
		return fmt.Errorf("-inflight must be > 0 (got %d)", c.inflight)
	}
	if c.queue <= 0 {
		return fmt.Errorf("-queue must be > 0 (got %d)", c.queue)
	}
	if c.workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (got %d)", c.workers)
	}
	return nil
}

// openOrCreate recovers an existing store in dir, or initialises a
// fresh one with the five-algorithm batch composite over g — the same
// construction `adpart -algo batch -store` uses.
func openOrCreate(dir string, g *graph.Graph, baseName string, n int) (*store.Store, error) {
	if names, err := os.ReadDir(dir); err == nil && len(names) > 0 {
		st, info, err := store.Open(dir, g, store.Options{})
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "adserve: store: %v\n", info)
		return st, nil
	}
	spec, ok := partitioner.ByName(baseName)
	if !ok {
		return nil, fmt.Errorf("unknown baseline %q", baseName)
	}
	base, err := spec.Run(g, n)
	if err != nil {
		return nil, err
	}
	comp, _, err := composite.ForFamily(spec.Family, base, costmodel.ReferenceModels(), composite.Options{})
	if err != nil {
		return nil, fmt.Errorf("baseline %q: %w", baseName, err)
	}
	st, err := store.Create(dir, comp, store.Options{})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "adserve: store: created at %s (%s over %s, %d fragments)\n", dir, spec.Name, graphLabel(g), n)
	return st, nil
}

func graphLabel(g *graph.Graph) string {
	return fmt.Sprintf("%d vertices / %d edges", g.NumVertices(), g.NumEdges())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "adserve:", err)
	os.Exit(1)
}
