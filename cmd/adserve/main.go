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
// With -maintain, a background loop watches the served workload for
// learned-cost drift (-drift-threshold, checked every
// -maintain-interval) and re-refines + promotes the partitioning in
// place; see the "maintenance" block of GET /metrics.
//
// Replication (see DESIGN.md, "Replication"):
//
//	adserve -store lead/ -listen :7133 -listen-repl :7233
//	adserve -store fol/  -listen :7134 -replica-of :7233 \
//	        -leader-url http://127.0.0.1:7133
//
// A leader with -listen-repl streams committed WAL frames to pulling
// followers. A follower (-replica-of) bootstraps from the leader's
// newest snapshot when its store directory is empty, replays frames
// into its own durable store, serves reads with an advertised
// staleness watermark (min_lsn on /run and /vertex), and either
// rejects writes with the not_leader class or forwards them to
// -leader-url. Failover: SIGUSR1 promotes a live follower in place;
// -promote fences an offline follower store and exits; -promote-after
// auto-promotes when no pull has succeeded within the lease.
//
// Endpoints:
//
//	POST /run          {"algo":"PR","timeout_ms":5000,"min_lsn":0,...}
//	GET  /vertex/{id}?min_lsn=N  placement + neighborhood under one epoch
//	GET  /metrics      partition, cost-model, wal and replication statistics
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
	"adp/internal/maintain"
	"adp/internal/partitioner"
	"adp/internal/pool"
	"adp/internal/replica"
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

		maintainOn = flag.Bool("maintain", false, "enable the background re-refinement maintenance loop")
		driftThr   = flag.Float64("drift-threshold", 0.5, "learned-cost imbalance that triggers a re-refinement cycle")
		maintEvery = flag.Duration("maintain-interval", 5*time.Second, "drift-detector tick interval")

		listenRepl   = flag.String("listen-repl", "", "leader: serve the WAL-shipping replication protocol on this address")
		replicaOf    = flag.String("replica-of", "", "follower: pull committed WAL frames from this leader replication address")
		leaderURL    = flag.String("leader-url", "", "follower: forward POST /updates to this leader HTTP URL (default: reject with not_leader)")
		replicaID    = flag.String("replica-id", "", "follower: identity in the leader's watermark table (default: the listen address)")
		promote      = flag.Bool("promote", false, "fence the follower store at -store (truncate to committed prefix, fresh segment) and exit; next boot leads")
		promoteAfter = flag.Duration("promote-after", 0, "follower: auto-promote when no pull succeeded within this lease (0 = operator-only via SIGUSR1)")
		ackFollowers = flag.Int("ack-followers", 0, "leader: update acks report replicated=true only once this many followers hold the batch durably")
	)
	flag.Parse()
	if *storeDir == "" {
		fatal(fmt.Errorf("-store is required"))
	}
	fc := flagConfig{
		grace: *grace, maintEvery: *maintEvery, inflight: *inflight, queue: *queue, workers: *workers,
		driftThr: *driftThr, listen: *listen, listenRepl: *listenRepl,
		replicaOf: *replicaOf, leaderURL: *leaderURL, maintain: *maintainOn,
		promote: *promote, promoteAfter: *promoteAfter, ackFollowers: *ackFollowers,
	}
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

	if *promote {
		if err := promoteStore(*storeDir, g); err != nil {
			fatal(err)
		}
		return
	}

	follower := *replicaOf != ""
	var st *store.Store
	if follower {
		st, err = openOrBootstrap(*storeDir, g, *replicaOf)
	} else {
		st, err = openOrCreate(*storeDir, g, *baseName, *n)
	}
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
		ReadOnly:        follower,
		LeaderURL:       *leaderURL,
		Logf:            logf,
	}

	// Leader side: serve committed frames on the replication listener
	// and, when asked, hold update acks for follower durability.
	var leader *replica.Leader
	if *listenRepl != "" {
		leader = replica.NewLeader(st, replica.LeaderConfig{Logf: logf})
		if *ackFollowers > 0 {
			minF := *ackFollowers
			cfg.ReplWait = func(ctx context.Context, lsn uint64) error {
				return leader.WaitDurable(ctx, lsn, minF)
			}
		}
	}

	srv, err := serve.New(st, cfg)
	if err != nil {
		fatal(err)
	}
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}

	if leader != nil {
		lr, err := net.Listen("tcp", *listenRepl)
		if err != nil {
			fatal(err)
		}
		go leader.Serve(lr)
		defer lr.Close()
		srv.SetReplStatusFunc(replica.LeaderStatus(leader, st))
		fmt.Fprintf(os.Stderr, "adserve: replication leader on %s (ack-followers %d)\n", lr.Addr(), *ackFollowers)
	}

	var pump *replica.Follower
	if follower {
		id := *replicaID
		if id == "" {
			id = *listen
		}
		pump = replica.NewFollower(&replica.ServerApplier{Srv: srv}, replica.FollowerConfig{
			ID:    id,
			Dial:  replica.TCPDialer(*replicaOf),
			Lease: *promoteAfter,
			Logf:  logf,
		})
		srv.SetReplStatusFunc(replica.ServeStatus(pump))
		pump.Start()
		fmt.Fprintf(os.Stderr, "adserve: follower of %s (id %q, lease %v); SIGUSR1 promotes\n", *replicaOf, id, *promoteAfter)
	}

	srv.Start(l)

	var lp *maintain.Loop
	if *maintainOn {
		lp = maintain.New(srv, maintain.Config{
			Interval:       *maintEvery,
			DriftThreshold: *driftThr,
			Logf:           logf,
		})
		lp.Start()
		fmt.Fprintf(os.Stderr, "adserve: maintenance loop on (interval %v, drift threshold %.3f)\n", *maintEvery, *driftThr)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT, syscall.SIGUSR1)
	var sig os.Signal
	for sig = <-sigc; sig == syscall.SIGUSR1; sig = <-sigc {
		if pump == nil {
			fmt.Fprintln(os.Stderr, "adserve: SIGUSR1 ignored (not a follower)")
			continue
		}
		if err := pump.Promote(); err != nil {
			fmt.Fprintf(os.Stderr, "adserve: promotion failed: %v\n", err)
			continue
		}
		fmt.Fprintf(os.Stderr, "adserve: promoted to leader at lsn %d; accepting writes\n", srv.AppliedLSN())
	}
	fmt.Fprintf(os.Stderr, "adserve: %v, draining (grace %v)\n", sig, *grace)
	if lp != nil {
		// Stop the loop first so no maintenance cycle races the drain.
		lp.Stop()
	}
	if pump != nil {
		// Stop the pump before the drain so no replication apply races
		// the store close.
		pump.Stop()
	}
	if leader != nil {
		leader.Close()
	}
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
	grace        time.Duration
	maintEvery   time.Duration
	inflight     int
	queue        int
	workers      int
	driftThr     float64
	listen       string
	listenRepl   string
	replicaOf    string
	leaderURL    string
	maintain     bool
	promote      bool
	promoteAfter time.Duration
	ackFollowers int
}

// validateFlags rejects configurations that would only fail later and
// obscurely: a negative grace or tick interval silently disables the
// mechanism it configures, a non-positive admission or queue limit
// wedges every request, and contradictory replication roles (follower
// + maintenance, follower + promote-and-exit, colliding listeners,
// self-replication) corrupt state instead of erroring.
func validateFlags(c flagConfig) error {
	if c.grace < 0 {
		return fmt.Errorf("-grace must be >= 0 (got %v)", c.grace)
	}
	if c.maintEvery <= 0 {
		return fmt.Errorf("-maintain-interval must be > 0 (got %v)", c.maintEvery)
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
	if c.driftThr <= 0 {
		return fmt.Errorf("-drift-threshold must be > 0 (got %g)", c.driftThr)
	}
	if c.replicaOf != "" && c.maintain {
		return fmt.Errorf("-replica-of and -maintain are mutually exclusive: a follower's partitioning is the leader's, maintained there")
	}
	if c.replicaOf != "" && c.listenRepl != "" {
		return fmt.Errorf("-replica-of and -listen-repl are mutually exclusive: cascading replication is not supported")
	}
	if c.replicaOf != "" && c.promote {
		return fmt.Errorf("-promote fences an offline store; it cannot be combined with -replica-of")
	}
	if c.listenRepl != "" && c.listenRepl == c.listen {
		return fmt.Errorf("-listen-repl %q collides with -listen", c.listenRepl)
	}
	if c.replicaOf != "" && c.replicaOf == c.listen {
		return fmt.Errorf("-replica-of %q is this server's own -listen address", c.replicaOf)
	}
	if c.ackFollowers < 0 {
		return fmt.Errorf("-ack-followers must be >= 0 (got %d)", c.ackFollowers)
	}
	if c.ackFollowers > 0 && c.listenRepl == "" {
		return fmt.Errorf("-ack-followers needs -listen-repl (no followers can register without it)")
	}
	if c.leaderURL != "" && c.replicaOf == "" {
		return fmt.Errorf("-leader-url only applies to a follower (-replica-of)")
	}
	if c.promoteAfter < 0 {
		return fmt.Errorf("-promote-after must be >= 0 (got %v)", c.promoteAfter)
	}
	if c.promoteAfter > 0 && c.replicaOf == "" {
		return fmt.Errorf("-promote-after only applies to a follower (-replica-of)")
	}
	return nil
}

// promoteStore fences a follower store offline: Open already truncated
// to the committed prefix, RotateSegment starts a fresh segment so the
// next boot appends as a leader with no replicated tail behind it.
func promoteStore(dir string, g *graph.Graph) error {
	st, info, err := store.Open(dir, g, store.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "adserve: store: %v\n", info)
	if err := st.RotateSegment(); err != nil {
		st.Close()
		return err
	}
	if err := st.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "adserve: promoted: log fenced at lsn %d; restart without -promote to lead\n", st.CommittedLSN())
	return nil
}

// openExisting recovers the store in dir and prints its RecoveryInfo;
// (nil, nil) means dir is empty or missing, so there is none to open.
func openExisting(dir string, g *graph.Graph) (*store.Store, error) {
	if names, err := os.ReadDir(dir); err != nil || len(names) == 0 {
		return nil, nil
	}
	st, info, err := store.Open(dir, g, store.Options{})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "adserve: store: %v\n", info)
	return st, nil
}

// openOrBootstrap recovers an existing follower store (recovery lands
// on the committed prefix) or bootstraps an empty directory from the
// leader's newest snapshot.
func openOrBootstrap(dir string, g *graph.Graph, leaderAddr string) (*store.Store, error) {
	if st, err := openExisting(dir, g); st != nil || err != nil {
		return st, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := replica.Bootstrap(ctx, replica.TCPDialer(leaderAddr), dir, g, store.Options{})
	if err != nil {
		return nil, fmt.Errorf("bootstrapping from %s: %w", leaderAddr, err)
	}
	fmt.Fprintf(os.Stderr, "adserve: store: bootstrapped from %s at lsn %d\n", leaderAddr, st.CommittedLSN())
	return st, nil
}

// openOrCreate recovers an existing store in dir, or initialises a
// fresh one with the five-algorithm batch composite over g — the same
// construction `adpart -algo batch -store` uses.
func openOrCreate(dir string, g *graph.Graph, baseName string, n int) (*store.Store, error) {
	if st, err := openExisting(dir, g); st != nil || err != nil {
		return st, err
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
