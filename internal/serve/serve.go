// Package serve is the partition-serving plane: a long-lived daemon
// face over a durable composite store (internal/store), built for the
// ROADMAP north star of serving heavy concurrent traffic.
//
// The concurrency design is single-writer / many-reader with epoch
// snapshots:
//
//   - The store's live composite is the durable ground truth. It is
//     mutated only by the background apply loop (one goroutine), never
//     served directly — the store is not safe for concurrent use.
//   - Each published epoch is a copy-on-write snapshot of the
//     composite (composite.CloneCOW): fragments the last wave did not
//     touch are shared with the previous epoch as the same immutable
//     compiled value, so a cut costs O(touched fragments), not
//     O(graph). The snapshot is installed behind an atomic.Pointer.
//     Readers pin exactly one epoch per request (a refcount for drain
//     accounting and metrics; reclamation is the garbage collector's
//     job), so every response is consistent with one snapshot, with
//     zero locks on the read path.
//   - POST /updates batches flow through a bounded queue to the apply
//     loop, which gathers what is queued into a wave (gather), applies
//     it to the store (durable on WAL commit), then cuts and atomically
//     publishes the next epoch. Readers keep serving the previous epoch
//     until the swap.
//
// Requests are admission-controlled (a semaphore bounds in-flight
// /run work; the update queue bounds writer backlog) and /run sessions
// come from per-algorithm pools of engine clusters built on
// internal/pool. Drain stops the HTTP listener, lets in-flight sessions
// complete (cancelling them after the grace deadline), drains the
// update queue, flushes the WAL and closes the store.
package serve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"adp/internal/composite"
	"adp/internal/costmodel"
	"adp/internal/graph"
	"adp/internal/partition"
	"adp/internal/pool"
	"adp/internal/store"
)

// Config tunes the server. The zero value picks serving defaults.
type Config struct {
	// SessionsPerAlgo bounds concurrent engine runs per algorithm (the
	// size of each per-algorithm session pool). Default 2.
	SessionsPerAlgo int
	// MaxInflight bounds admitted concurrent /run requests (including
	// those queueing for a session). Excess requests get 429. Default 64.
	MaxInflight int
	// UpdateQueue bounds pending update batches; a full queue rejects
	// POST /updates with 429. Default 16.
	UpdateQueue int
	// DefaultTimeout is the per-request /run deadline when the request
	// does not carry timeout_ms. Default 30s.
	DefaultTimeout time.Duration
	// Pool is the engine worker pool sessions run on; nil uses the
	// process-wide shared pool.
	Pool *pool.Pool
	// Logf, when non-nil, receives one line per lifecycle event.
	Logf func(format string, args ...any)
}

// The apply loop's fixed limits. A wave folds at most maxBatch queued
// update batches into one epoch publish. A transient commit-time fsync
// failure is re-issued up to applyRetries times (backing off from
// applyRetryBase, doubling each attempt) before the write path stays
// poisoned; non-fsync write failures (torn writes, crashes) poison at
// once.
const (
	maxBatch       = 8
	applyRetries   = 3
	applyRetryBase = 2 * time.Millisecond
)

func (c *Config) fill() {
	if c.SessionsPerAlgo <= 0 {
		c.SessionsPerAlgo = 2
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	if c.UpdateQueue <= 0 {
		c.UpdateQueue = 16
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
}

// epoch is one published snapshot: an immutable compiled composite
// plus its session pools. seq starts at 1 and increments per publish.
type epoch struct {
	seq  uint64
	lsn  uint64 // store LSN when this epoch was cut
	comp *composite.Composite
	// pins counts readers currently inside a request against this
	// epoch (diagnostics and drain accounting; epochs are reclaimed by
	// the garbage collector, not by refcount).
	pins atomic.Int64
	// pools[i] serves costmodel.Algos()[i]; sessions are built lazily.
	pools []*sessionPool

	metOnce     sync.Once
	met         []partition.Metrics // per bundled partition
	cost        []float64           // ParallelCost per algorithm
	lambda      []float64           // LambdaCost per algorithm
	storageArcs int                 // composite StorageArcs
	fc          float64             // composite FC
	// fullBytes is the epoch's resident size as if nothing were shared.
	fullBytes int64
}

// Server is the serving daemon: one durable store, one hot epoch, and
// the HTTP face over them.
type Server struct {
	cfg Config
	g   *graph.Graph
	st  *store.Store

	cur     atomic.Pointer[epoch]
	admit   chan struct{}
	updates chan *updateBatch

	baseCtx context.Context
	cancel  context.CancelFunc
	httpSrv *http.Server
	applyWG sync.WaitGroup

	draining    atomic.Bool
	storeFailed atomic.Bool

	// Epoch memory accounting (guarded by epochMu): superseded epochs
	// still pinned by in-flight readers, plus the last publish's
	// sharing breakdown. Epochs are reclaimed by the garbage collector;
	// retired only tracks the ones readers are still holding open.
	epochMu     sync.Mutex
	retired     []*epoch
	lastPublish epochMemStats

	// Counters mirrored out of the apply loop so /metrics never
	// touches the store.
	served         atomic.Int64
	rejected       atomic.Int64
	runFailures    atomic.Int64
	epochSwaps     atomic.Int64
	updatesApplied atomic.Int64
	applyRetries   atomic.Int64
	lastLSN        atomic.Uint64
	committed      atomic.Int64
}

// New wraps an opened (or freshly created) store. The server owns the
// store from here on: the apply loop is its only writer and Drain
// closes it. The first epoch is cut immediately.
func New(st *store.Store, cfg Config) (*Server, error) {
	cfg.fill()
	comp := st.Composite()
	if comp == nil || comp.K() == 0 {
		return nil, fmt.Errorf("serve: store holds no composite")
	}
	s := &Server{
		cfg:     cfg,
		g:       comp.Partition(0).Graph(),
		st:      st,
		admit:   make(chan struct{}, cfg.MaxInflight),
		updates: make(chan *updateBatch, cfg.UpdateQueue),
	}
	s.baseCtx, s.cancel = context.WithCancel(context.Background())
	s.publish(comp)
	s.lastLSN.Store(st.LSN())
	s.committed.Store(st.Committed())
	s.applyWG.Add(1)
	go s.applyLoop()
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Server) pool() *pool.Pool {
	if s.cfg.Pool != nil {
		return s.cfg.Pool
	}
	return pool.Default()
}

// newEpoch builds the session pools over a cut composite (CloneCOW
// leaves every partition compiled).
func (s *Server) newEpoch(seq uint64, comp *composite.Composite, lsn uint64) *epoch {
	e := &epoch{seq: seq, lsn: lsn, comp: comp}
	algos := costmodel.Algos()
	e.pools = make([]*sessionPool, len(algos))
	for i, a := range algos {
		part := comp.Partition(comp.PartitionFor(a))
		e.pools[i] = newSessionPool(part, s.pool(), s.cfg.SessionsPerAlgo)
	}
	return e
}

// epochMemStats is the sharing breakdown of one publish, surfaced by
// GET /metrics so COW sharing is observable, not assumed.
type epochMemStats struct {
	publishNS                       int64
	sharedFragments, ownedFragments int
	// newBytes approximates the memory the publish newly materialized
	// (its owned fragments).
	newBytes int64
}

// publish cuts a snapshot of comp, installs it as the next epoch, and
// retires the previous one into the pinned-epoch ledger. Only New and
// the apply loop (the single writer) call it: nothing mutates comp.
func (s *Server) publish(comp *composite.Composite) *epoch {
	old := s.cur.Load()
	seq := uint64(1)
	if old != nil {
		seq = old.seq + 1
	}
	start := time.Now()
	// The epoch advertises the durable watermark, not the last appended
	// LSN: min_lsn reads promise "this epoch covers every commit up to
	// lsn", which only the committed prefix delivers.
	ne := s.newEpoch(seq, comp.CloneCOW(), s.st.CommittedLSN())
	elapsed := time.Since(start)
	s.cur.Store(ne)
	s.recordPublish(old, ne, elapsed)
	return ne
}

// recordPublish updates the epoch memory ledger after a publish.
func (s *Server) recordPublish(old, ne *epoch, d time.Duration) {
	var prev *composite.Composite
	if old != nil {
		prev = old.comp
	}
	// The epoch's full size walks every chunk of every partition, so it
	// is left to the first /metrics that asks (epoch.metrics), off the
	// ack path.
	delta := ne.comp.ShareStats(prev)
	st := epochMemStats{
		publishNS:       d.Nanoseconds(),
		sharedFragments: delta.SharedFragments,
		ownedFragments:  delta.OwnedFragments,
		newBytes:        delta.OwnedBytes,
	}
	s.epochMu.Lock()
	if old != nil {
		s.retired = append(s.retired, old)
	}
	s.pruneRetiredLocked()
	s.lastPublish = st
	s.epochMu.Unlock()
}

// pruneRetiredLocked drops retired epochs no reader still pins, so the
// ledger tracks only epochs held open. Caller holds epochMu.
func (s *Server) pruneRetiredLocked() {
	s.retired = slices.DeleteFunc(s.retired, func(e *epoch) bool { return e.pins.Load() == 0 })
}

// epochMemSnapshot returns the count of epochs currently retained
// (current + superseded-but-pinned) and the last publish's stats.
func (s *Server) epochMemSnapshot() (retained int, st epochMemStats) {
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	s.pruneRetiredLocked()
	return len(s.retired) + 1, s.lastPublish
}

// pin acquires the current epoch for one request. The retry keeps the
// pin count attached to the epoch the reader actually uses even when a
// publish races the acquisition.
func (s *Server) pin() *epoch {
	for {
		e := s.cur.Load()
		e.pins.Add(1)
		if s.cur.Load() == e {
			return e
		}
		e.pins.Add(-1)
	}
}

func (e *epoch) unpin() { e.pins.Add(-1) }

// algoIndex returns a's position in costmodel.Algos(), the index of
// its session pool.
func algoIndex(a costmodel.Algo) int { return max(slices.Index(costmodel.Algos(), a), 0) }

// metrics computes (once per epoch) the structural metrics, composite
// storage, full size and reference-model costs served by GET /metrics,
// filling the epoch's met, cost, lambda, storageArcs, fc and fullBytes.
// Safe for concurrent callers; the epoch is immutable.
func (e *epoch) metrics() {
	e.metOnce.Do(func() {
		e.storageArcs, e.fc = e.comp.StorageArcs(), e.comp.FC()
		e.fullBytes = e.comp.ShareStats(nil).OwnedBytes
		e.met = make([]partition.Metrics, e.comp.K())
		for j := 0; j < e.comp.K(); j++ {
			e.met[j] = e.comp.Partition(j).ComputeMetrics()
		}
		algos := costmodel.Algos()
		e.cost = make([]float64, len(algos))
		e.lambda = make([]float64, len(algos))
		for i, a := range algos {
			costs := costmodel.Evaluate(e.comp.Partition(e.comp.PartitionFor(a)), costmodel.Reference(a))
			e.cost[i] = costmodel.ParallelCost(costs)
			e.lambda[i] = costmodel.LambdaCost(costs)
		}
	})
}

// updateBatch is one POST /updates body on its way to the apply loop.
type updateBatch struct {
	muts  []store.Mutation
	reply chan updateResult
}

type updateResult struct {
	err              error
	epoch            uint64 // epoch the batch became visible in (0: durable, not published)
	lsn              uint64
	inserts, deletes int
}

// applyLoop is the single writer: it gathers a wave of queued batches,
// applies them to the store (each batch is one durable WAL commit), and
// publishes a fresh epoch covering the wave. A non-retryable store
// write failure poisons the write path — the last good epoch keeps
// serving reads, updates fail fast until the process restarts and
// recovery truncates to the committed prefix.
func (s *Server) applyLoop() {
	defer s.applyWG.Done()
	for b := range s.updates {
		s.applyWave(s.gather(b))
	}
}

// gather returns the wave b opens: b and whatever is already queued
// behind it, up to maxBatch batches in all. It does not wait for
// company: a cut re-packs only the chunks its wave touched, so a wave
// of one batch costs about one batch's worth of cut.
func (s *Server) gather(b *updateBatch) []*updateBatch {
	wave := []*updateBatch{b}
	for len(wave) < maxBatch {
		select {
		case nb, ok := <-s.updates:
			if !ok {
				return wave
			}
			wave = append(wave, nb)
		default:
			return wave
		}
	}
	return wave
}

// finish is the tail of every wave: mirror the store's counters out for
// /metrics, derive storeFailed from the store's own poison state,
// logging its cause, and — when the wave advanced the composite — cut
// and publish the next epoch.
func (s *Server) finish(publish bool) *epoch {
	s.lastLSN.Store(s.st.LSN())
	s.committed.Store(s.st.Committed())
	if cause := s.st.Failed(); cause != nil && !s.storeFailed.Load() {
		s.storeFailed.Store(true)
		s.logf("serve: store poisoned, write path failed until restart: %v", cause)
	}
	if !publish {
		return nil
	}
	ne := s.publish(s.st.Composite())
	s.epochSwaps.Add(1)
	return ne
}

func (s *Server) applyWave(wave []*updateBatch) {
	results := make([]updateResult, len(wave))
	var failed error
	for i, b := range wave {
		if failed != nil {
			// A poisoned store fails every later batch fast; skip the
			// Apply call so the in-memory composite is not touched.
			results[i] = updateResult{err: fmt.Errorf("serve: store write path failed; restart to recover")}
			continue
		}
		// Each commit marker is one durable WAL commit, retried in place
		// on a transient fsync failure (store.ApplyRetrying).
		ins, del, retries, err := s.st.ApplyRetrying(b.muts, applyRetries, applyRetryBase)
		s.applyRetries.Add(int64(retries))
		results[i] = updateResult{err: err, inserts: ins, deletes: del}
		if failed = err; err == nil {
			s.updatesApplied.Add(int64(ins + del))
		}
	}
	// A failed wave publishes nothing: the batch that poisoned the store
	// may have half-applied to the in-memory composite, so only the last
	// published epoch and the committed WAL prefix can be trusted.
	// Batches before the failure are durable but invisible; their result
	// says so via epoch == 0.
	if ne := s.finish(failed == nil); ne != nil {
		for i := range results {
			results[i].epoch = ne.seq
			results[i].lsn = ne.lsn
		}
	}
	for i, b := range wave {
		b.reply <- results[i]
	}
}

// Start serves HTTP on l until Drain. It returns immediately.
func (s *Server) Start(l net.Listener) {
	s.httpSrv = &http.Server{
		Handler: s.Handler(),
		// Request contexts derive from baseCtx so Drain can cancel
		// every in-flight engine run after the grace period.
		BaseContext: func(net.Listener) context.Context { return s.baseCtx },
	}
	go func() {
		if err := s.httpSrv.Serve(l); err != nil && err != http.ErrServerClosed {
			s.logf("serve: http: %v", err)
		}
	}()
	s.logf("serve: listening on %s", l.Addr())
}

// Drain gracefully stops the server: stop accepting, wait for
// in-flight requests up to ctx's deadline, then cancel their runs
// (each returns a typed error within one superstep barrier), drain
// the update queue, flush the WAL and close the store. After Drain
// the server is unusable. Returns the first error; nil means every
// session completed or cancelled cleanly and the log is flushed.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	var shutErr error
	if s.httpSrv != nil {
		if err := s.httpSrv.Shutdown(ctx); err != nil {
			// Grace expired: cancel in-flight runs and wait again —
			// engine runs observe cancellation at the next barrier, so
			// this second wait is bounded.
			s.cancel()
			shutErr = s.httpSrv.Shutdown(context.Background())
		}
	}
	s.cancel()
	// No handler is in flight now, so nothing can send on updates.
	close(s.updates)
	s.applyWG.Wait()
	closeErr := s.st.Close()
	s.logf("serve: drained (epoch=%d lsn=%d committed=%d)", s.cur.Load().seq, s.lastLSN.Load(), s.committed.Load())
	if shutErr != nil {
		return shutErr
	}
	return closeErr
}

// CurrentComposite returns the live epoch's immutable composite and
// sequence. Callers must treat it as read-only.
func (s *Server) CurrentComposite() (*composite.Composite, uint64) {
	e := s.cur.Load()
	return e.comp, e.seq
}

// Graph returns the immutable base graph the store serves over.
func (s *Server) Graph() *graph.Graph { return s.g }
