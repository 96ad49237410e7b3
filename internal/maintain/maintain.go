// Package maintain closes the loop the paper names as its key
// extension (Section 8, ROADMAP item 1): incremental maintenance of an
// application-driven partitioning under workload drift. A background
// control loop watches the serving plane's harvested per-fragment cost
// reports and live algorithm mix, and when the learned-cost imbalance
// crosses a threshold it cuts a candidate composite from the current
// epoch, re-refines it with ParE2H/ParV2H off the serving path, and
// asks the server to promote it — but only after the candidate passes
// a four-gate validation (coherence, composite storage, bitwise oracle
// spot-check, cost-improvement floor). A post-promotion regression
// watchdog compares the observed window against the pre-promotion state
// and rolls back to the retained base epoch if the promotion made
// things worse.
//
// The loop treats itself as a fallible component: refiner panics,
// injected disk faults, deadline expiry and repeated validation failure
// all degrade to "keep serving the last good epoch" with typed counters
// — never to a corrupted or half-promoted state. The chaos suite drives
// them through live maintenance cycles under -race to prove it.
package maintain

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"adp/internal/algorithms"
	"adp/internal/composite"
	"adp/internal/costmodel"
	"adp/internal/engine"
	"adp/internal/graph"
	"adp/internal/partition"
	"adp/internal/pool"
	"adp/internal/refine"
	"adp/internal/serve"
)

// WatchdogConfig tunes the post-promotion regression watchdog.
type WatchdogConfig struct {
	// Window is how long the promoted epoch observes traffic before
	// the keep/rollback verdict. Default 2s.
	Window time.Duration
	// MinSamples is the minimum number of /run latency samples on EACH
	// side of the promotion boundary before the latency comparison is
	// trusted. Default 8.
	MinSamples int
	// LatFactor rolls back when post-promotion p99 exceeds
	// pre-promotion p99 by this factor. Default 2.0.
	LatFactor float64
	// CostFactor rolls back when the live epoch's mix-weighted
	// simulated cost exceeds the pre-promotion base cost by this
	// factor. Default 1.05. Zero disables the cost check.
	CostFactor float64
}

// Config tunes the maintenance loop. The zero value picks defaults.
type Config struct {
	// Interval is the drift-detector tick. Default 5s.
	Interval time.Duration
	// DriftThreshold triggers a re-refinement cycle when the
	// mix-weighted learned-cost imbalance (max/mean - 1 of the
	// aggregate per-fragment load) crosses it. Default 0.5.
	DriftThreshold float64
	// MinGain is the cost-improvement floor: a candidate is promoted
	// only if its mix-weighted simulated cost is at most
	// (1 - MinGain) x the base cost. 0 accepts any non-worsening
	// candidate; negative values (tests) accept regressions. Default 0.
	MinGain float64
	// RefineTimeout bounds one candidate refinement. Default 30s.
	RefineTimeout time.Duration
	// BaseBackoff/MaxBackoff shape the exponential retry ladder
	// between failed attempts within a cycle (full jitter). Defaults
	// 100ms / 5s.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// MaxAttempts bounds refine+validate+swap attempts per cycle.
	// Default 3.
	MaxAttempts int
	// Watchdog tunes the post-promotion regression check.
	Watchdog WatchdogConfig
	// Refine is the refiner configuration used for every candidate
	// (Parallel is forced on; Pool defaults to Pool below).
	Refine refine.Config
	// Pool runs refinement probes and oracle spot-checks. Nil uses the
	// process-wide shared pool.
	Pool *pool.Pool
	// Seed drives the backoff jitter. Default 1.
	Seed int64
	// TransformCandidate, when non-nil, runs on each candidate after
	// refinement and before validation — the test seam for seeding
	// regressions, corruption or panics into live cycles.
	TransformCandidate func(*composite.Composite)
	// Logf, when non-nil, receives one line per maintenance event.
	Logf func(format string, args ...any)
}

func (c *Config) fill() {
	if c.Interval <= 0 {
		c.Interval = 5 * time.Second
	}
	if c.DriftThreshold <= 0 {
		c.DriftThreshold = 0.5
	}
	if c.RefineTimeout <= 0 {
		c.RefineTimeout = 30 * time.Second
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 100 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 5 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.Watchdog.Window <= 0 {
		c.Watchdog.Window = 2 * time.Second
	}
	if c.Watchdog.MinSamples <= 0 {
		c.Watchdog.MinSamples = 8
	}
	if c.Watchdog.LatFactor <= 0 {
		c.Watchdog.LatFactor = 2.0
	}
	if c.Watchdog.CostFactor < 0 {
		c.Watchdog.CostFactor = 0
	} else if c.Watchdog.CostFactor == 0 {
		c.Watchdog.CostFactor = 1.05
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	c.Refine.Parallel = true
	if c.Refine.Pool == nil {
		c.Refine.Pool = c.Pool
	}
}

// Loop is one maintenance control loop bound to one server.
type Loop struct {
	cfg Config
	srv *serve.Server

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	rng    *rand.Rand // loop goroutine only

	mu        sync.Mutex
	state     string
	lastError string

	cycles             atomic.Int64
	promotions         atomic.Int64
	rollbacks          atomic.Int64
	validationFailures atomic.Int64
	refineFailures     atomic.Int64
	refinePanics       atomic.Int64
	rejectedStorage    atomic.Int64
	swapFailures       atomic.Int64
	lastDrift          atomic.Uint64 // Float64bits
}

// New builds a loop over srv. Start launches it; a Loop can also be
// driven synchronously with Tick (tests, cron-style callers).
func New(srv *serve.Server, cfg Config) *Loop {
	cfg.fill()
	l := &Loop{cfg: cfg, srv: srv, state: "idle", rng: rand.New(rand.NewSource(cfg.Seed))}
	l.ctx, l.cancel = context.WithCancel(context.Background())
	return l
}

// Start launches the background loop and registers the /metrics
// maintenance block on the server.
func (l *Loop) Start() {
	l.srv.SetMaintStatusFunc(l.Status)
	l.wg.Add(1)
	go l.run()
}

// Stop cancels the loop and waits for the current cycle to unwind.
// The /metrics block stays registered so post-mortem counters remain
// visible.
func (l *Loop) Stop() {
	l.cancel()
	l.wg.Wait()
}

// Status snapshots the loop's counters for /metrics.
func (l *Loop) Status() serve.MaintStatus {
	l.mu.Lock()
	state, lastErr := l.state, l.lastError
	l.mu.Unlock()
	return serve.MaintStatus{
		Enabled:            true,
		State:              state,
		Cycles:             l.cycles.Load(),
		Promoted:           l.promotions.Load(),
		RolledBack:         l.rollbacks.Load(),
		ValidationFailures: l.validationFailures.Load(),
		RefineFailures:     l.refineFailures.Load(),
		RefinePanics:       l.refinePanics.Load(),
		RejectedStorage:    l.rejectedStorage.Load(),
		SwapFailures:       l.swapFailures.Load(),
		LastDrift:          math.Float64frombits(l.lastDrift.Load()),
		Threshold:          l.cfg.DriftThreshold,
		LastError:          lastErr,
	}
}

func (l *Loop) setState(s string) {
	l.mu.Lock()
	l.state = s
	l.mu.Unlock()
}

func (l *Loop) setError(err error) {
	l.mu.Lock()
	if err == nil {
		l.lastError = ""
	} else {
		l.lastError = err.Error()
	}
	l.mu.Unlock()
}

func (l *Loop) logf(format string, args ...any) {
	if l.cfg.Logf != nil {
		l.cfg.Logf(format, args...)
	}
}

func (l *Loop) pool() *pool.Pool {
	if l.cfg.Pool != nil {
		return l.cfg.Pool
	}
	return pool.Default()
}

func (l *Loop) run() {
	defer l.wg.Done()
	ticker := time.NewTicker(l.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-l.ctx.Done():
			return
		case <-ticker.C:
			l.Tick()
		}
	}
}

// Tick runs one detector pass and, if the drift signal crosses the
// threshold, one full maintenance cycle synchronously. Safe to call
// from tests instead of Start; not safe concurrently with itself.
func (l *Loop) Tick() {
	drift, weights := l.detect()
	l.lastDrift.Store(math.Float64bits(drift))
	if drift < l.cfg.DriftThreshold {
		l.setState("idle")
		return
	}
	l.logf("maintain: drift %.3f >= %.3f, starting cycle", drift, l.cfg.DriftThreshold)
	l.cycle(weights)
}

// detect folds the server's observation window into the drift signal:
// per-algorithm per-fragment load rows (the engine's harvested Work
// vectors when the window saw traffic for that algorithm, reference
// cost-model evaluation as fallback) weighted by the observed mix.
func (l *Loop) detect() (float64, []float64) {
	counts, work := l.srv.ObservedWindow()
	weights := costmodel.MixWeights(counts)
	nonzero := false
	for _, w := range weights {
		if w > 0 {
			nonzero = true
			break
		}
	}
	if !nonzero {
		return 0, weights
	}
	comp, _ := l.srv.CurrentComposite()
	algos := costmodel.Algos()
	rows := make([][]float64, len(algos))
	for i, a := range algos {
		if i >= len(weights) || weights[i] == 0 {
			continue
		}
		if i < len(work) && vectorSum(work[i]) > 0 {
			rows[i] = work[i]
			continue
		}
		costs := costmodel.Evaluate(comp.Partition(comp.PartitionFor(a)), costmodel.Reference(a))
		rows[i] = costmodel.FragTotals(costs)
	}
	return costmodel.WeightedImbalance(rows, weights), weights
}

func vectorSum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// cycle runs refine → validate → promote with bounded retries and
// exponential backoff + jitter, then hands the promoted epoch to the
// regression watchdog. Every failure path leaves the server on its
// last good epoch; the deferred EndMaintenance releases delta capture
// whatever happens.
func (l *Loop) cycle(weights []float64) {
	l.cycles.Add(1)
	base, baseSeq, err := l.srv.BeginMaintenance()
	if err != nil {
		l.setError(err)
		l.swapFailures.Add(1)
		return
	}
	defer l.srv.EndMaintenance()
	defer l.setState("idle")

	baseCost := l.weightedCost(base, weights)
	baseArcs := base.StorageArcs()
	baseOracle, err := l.oracleRun(base)
	if err != nil {
		// The base itself cannot run the oracle (it IS the serving
		// state): nothing to compare candidates against — bail.
		l.setError(fmt.Errorf("maintain: base oracle run: %w", err))
		l.refineFailures.Add(1)
		return
	}

	for attempt := 0; attempt < l.cfg.MaxAttempts; attempt++ {
		if attempt > 0 && !l.backoff(attempt) {
			return // cancelled mid-backoff
		}
		cand, err := l.buildCandidate(base)
		if err != nil {
			l.setError(err)
			continue // counters bumped inside buildCandidate
		}
		if err := l.validate(cand, baseOracle, baseCost, baseArcs, weights); err != nil {
			l.validationFailures.Add(1)
			l.setError(err)
			l.logf("maintain: attempt %d: candidate rejected: %v", attempt, err)
			continue
		}
		l.setState("promoting")
		newSeq, err := l.srv.SwapEpoch(cand, baseSeq, false)
		if err != nil {
			l.swapFailures.Add(1)
			l.setError(err)
			l.logf("maintain: attempt %d: swap failed: %v", attempt, err)
			continue
		}
		l.promotions.Add(1)
		l.setError(nil)
		l.logf("maintain: promoted epoch %d (base %d)", newSeq, baseSeq)
		l.watchdog(base, baseSeq, newSeq, baseCost, weights)
		return
	}
	l.logf("maintain: cycle abandoned after %d attempts; serving last good epoch", l.cfg.MaxAttempts)
}

// backoff sleeps the exponential full-jitter ladder; false means the
// loop was cancelled while waiting.
func (l *Loop) backoff(attempt int) bool {
	d := l.cfg.BaseBackoff << (attempt - 1)
	if d > l.cfg.MaxBackoff {
		d = l.cfg.MaxBackoff
	}
	d = time.Duration(l.rng.Int63n(int64(d) + 1)) // full jitter: [0, d]
	l.setState("backoff")
	select {
	case <-time.After(d):
		return true
	case <-l.ctx.Done():
		return false
	}
}

// buildCandidate clones the base and re-refines every bundled
// partition off the serving path, bounded by RefineTimeout. A refiner
// panic is contained here (counted, candidate discarded). The refined
// partitions are reassembled through composite.New.
func (l *Loop) buildCandidate(base *composite.Composite) (cand *composite.Composite, err error) {
	l.setState("refining")
	defer func() {
		if r := recover(); r != nil {
			l.refinePanics.Add(1)
			cand, err = nil, fmt.Errorf("maintain: refiner panicked: %v", r)
		}
	}()
	// COW cut: the refiners mutate work through exported mutators only,
	// which copy a vertex's adjacency into work's own overlay before
	// writing, so base's shared compiled fragments stay intact for the
	// rollback path.
	work := base.CloneCOW()
	ctx, cancel := context.WithTimeout(l.ctx, l.cfg.RefineTimeout)
	defer cancel()
	for j := 0; j < work.K(); j++ {
		p := work.Partition(j)
		model := partitionModel(work, j)
		var rerr error
		if hasVCut(p) {
			_, rerr = refine.ParV2HCtx(ctx, p, model, l.cfg.Refine)
		} else {
			_, rerr = refine.ParE2HCtx(ctx, p, model, l.cfg.Refine)
		}
		if rerr != nil {
			l.refineFailures.Add(1)
			return nil, fmt.Errorf("maintain: refining partition %d: %w", j, rerr)
		}
	}
	if l.cfg.TransformCandidate != nil {
		l.cfg.TransformCandidate(work)
	}
	rebuilt, nerr := composite.New(work.Partition(0).Graph(), work.Partitions())
	if nerr != nil {
		l.refineFailures.Add(1)
		return nil, fmt.Errorf("maintain: reassembling candidate: %w", nerr)
	}
	return rebuilt, nil
}

// partitionModel picks the cost model partition j of c is refined
// against: the reference model of the algorithm that runs on j
// (Composite.PartitionFor). When several algorithms share j, the first
// wins — their reference models agree on the load-balance direction
// that matters for drift.
func partitionModel(c *composite.Composite, j int) costmodel.CostModel {
	algos := costmodel.Algos()
	for _, a := range algos {
		if c.PartitionFor(a) == j {
			return costmodel.Reference(a)
		}
	}
	return costmodel.Reference(algos[0])
}

// hasVCut reports whether p contains a v-cut vertex (multiple copies,
// none complete) — the shape ParV2H exists for; pure edge-cut-ish
// partitions take the ParE2H path instead.
func hasVCut(p *partition.Partition) bool {
	n := p.Graph().NumVertices()
	for v := 0; v < n; v++ {
		id := graph.VertexID(v)
		if len(p.Copies(id)) > 1 && p.CompleteFragment(id) < 0 {
			return true
		}
	}
	return false
}

// oracleOpts: WCC needs no knobs, and its label checksum is
// placement-independent — bitwise comparable across refinements.
var oracleOpts = algorithms.Options{}

// oracleRun executes the WCC spot-check over c's WCC partition. WCC is
// the one algorithm whose Outcome (Value and Checksum) is bitwise
// placement-independent, so base and candidate must agree exactly even
// though their placements differ.
func (l *Loop) oracleRun(c *composite.Composite) (algorithms.Outcome, error) {
	part := c.Partition(c.PartitionFor(costmodel.WCC))
	cl := engine.NewCluster(part).UsePool(l.pool()).Configure(engine.Options{Context: l.ctx})
	return algorithms.Run(cl, costmodel.WCC, oracleOpts)
}

// maxStorageGrowth bounds a candidate's StorageArcs relative to its
// base's. buildCandidate refines the k partitions one by one and keeps
// only the arcs all k still share as the core, so without it a
// promotion can undo the sharing ME2H/MV2H built (an MV2H composite
// once stored 72 % more arcs after one promotion).
const maxStorageGrowth = 0.10

// validate is the promotion gate: coherence, composite storage against
// the base's, bitwise oracle spot-check against the base outcome, and
// the cost-improvement floor.
func (l *Loop) validate(cand *composite.Composite, baseOracle algorithms.Outcome, baseCost float64, baseArcs int, weights []float64) error {
	l.setState("validating")
	if err := cand.ValidateIndex(); err != nil {
		return fmt.Errorf("coherence: %w", err)
	}
	if arcs := cand.StorageArcs(); float64(arcs) > (1+maxStorageGrowth)*float64(baseArcs) {
		l.rejectedStorage.Add(1)
		return fmt.Errorf("storage: candidate stores %d arcs, over %.0f%% more than the base's %d",
			arcs, 100*maxStorageGrowth, baseArcs)
	}
	out, err := l.oracleRun(cand)
	if err != nil {
		return fmt.Errorf("oracle run: %w", err)
	}
	if math.Float64bits(out.Value) != math.Float64bits(baseOracle.Value) || out.Checksum != baseOracle.Checksum {
		return fmt.Errorf("oracle mismatch: candidate (%v,%d) vs base (%v,%d)",
			out.Value, out.Checksum, baseOracle.Value, baseOracle.Checksum)
	}
	candCost := l.weightedCost(cand, weights)
	if candCost > baseCost*(1-l.cfg.MinGain) {
		return fmt.Errorf("cost floor: candidate %.4g > %.4g (base %.4g, min gain %.2f)",
			candCost, baseCost*(1-l.cfg.MinGain), baseCost, l.cfg.MinGain)
	}
	return nil
}

// weightedCost is the mix-weighted simulated parallel cost of a
// composite: sum over observed algorithms of w_a x ParallelCost of the
// partition serving a. Zero-weight algorithms are skipped; an all-zero
// mix falls back to uniform weights so the floor still bites.
func (l *Loop) weightedCost(c *composite.Composite, weights []float64) float64 {
	algos := costmodel.Algos()
	uniform := true
	for _, w := range weights {
		if w > 0 {
			uniform = false
			break
		}
	}
	var total float64
	for i, a := range algos {
		w := 1.0 / float64(len(algos))
		if !uniform {
			if i >= len(weights) || weights[i] == 0 {
				continue
			}
			w = weights[i]
		}
		costs := costmodel.Evaluate(c.Partition(c.PartitionFor(a)), costmodel.Reference(a))
		total += w * costmodel.ParallelCost(costs)
	}
	return total
}

// watchdog observes the promoted epoch for the configured window and
// rolls back to the retained base if the live cost or tail latency
// regressed past the configured factors. Rollback reuses the same
// guarded swap path as promotion, so a mid-rollback fault degrades the
// same way: last good epoch keeps serving.
func (l *Loop) watchdog(base *composite.Composite, baseSeq, promotedSeq uint64, baseCost float64, weights []float64) {
	l.setState("watchdog")
	pre := l.p99Before(promotedSeq)
	select {
	case <-time.After(l.cfg.Watchdog.Window):
	case <-l.ctx.Done():
		return
	}
	regressed := ""
	if l.cfg.Watchdog.CostFactor > 0 && baseCost > 0 {
		comp, _ := l.srv.CurrentComposite()
		if cur := l.weightedCost(comp, weights); cur > baseCost*l.cfg.Watchdog.CostFactor {
			regressed = fmt.Sprintf("cost %.4g > %.4g (base %.4g x %.2f)", cur, baseCost*l.cfg.Watchdog.CostFactor, baseCost, l.cfg.Watchdog.CostFactor)
		}
	}
	if regressed == "" && pre > 0 {
		if post, n := l.p99Since(promotedSeq); n >= l.cfg.Watchdog.MinSamples && post > time.Duration(float64(pre)*l.cfg.Watchdog.LatFactor) {
			regressed = fmt.Sprintf("p99 %v > %v x %.2f", post, pre, l.cfg.Watchdog.LatFactor)
		}
	}
	if regressed == "" {
		l.logf("maintain: epoch %d survived the watchdog window", promotedSeq)
		return
	}
	l.logf("maintain: epoch %d regressed (%s); rolling back to base of epoch %d", promotedSeq, regressed, baseSeq)
	if _, err := l.srv.SwapEpoch(base.CloneCOW(), baseSeq, true); err != nil {
		l.swapFailures.Add(1)
		l.setError(fmt.Errorf("maintain: rollback: %w", err))
		l.logf("maintain: rollback failed: %v", err)
		return
	}
	l.rollbacks.Add(1)
	l.setError(fmt.Errorf("maintain: rolled back epoch %d: %s", promotedSeq, regressed))
}

// p99Before computes p99 wall time of latency samples served by epochs
// before seq; zero when the window is too thin.
func (l *Loop) p99Before(seq uint64) time.Duration {
	var walls []time.Duration
	for _, s := range l.srv.LatencySamples() {
		if s.Epoch < seq {
			walls = append(walls, s.Wall)
		}
	}
	if len(walls) < l.cfg.Watchdog.MinSamples {
		return 0
	}
	return p99(walls)
}

// p99Since computes p99 wall time of samples served by epoch seq or
// later, plus the sample count.
func (l *Loop) p99Since(seq uint64) (time.Duration, int) {
	var walls []time.Duration
	for _, s := range l.srv.LatencySamples() {
		if s.Epoch >= seq {
			walls = append(walls, s.Wall)
		}
	}
	if len(walls) == 0 {
		return 0, 0
	}
	return p99(walls), len(walls)
}

func p99(walls []time.Duration) time.Duration {
	sort.Slice(walls, func(i, j int) bool { return walls[i] < walls[j] })
	idx := (len(walls)*99 + 99) / 100
	if idx > len(walls) {
		idx = len(walls)
	}
	return walls[idx-1]
}
