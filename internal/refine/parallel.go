package refine

import (
	"context"

	"adp/internal/costmodel"
	"adp/internal/pool"
)

// probeFunc decides whether a candidate fits fragment j within the
// budget; it must be read-only so probes can run concurrently.
type probeFunc func(tr *costmodel.Tracker, c candidate, j int, budget float64) bool

// applyFunc performs an accepted migration.
type applyFunc func(tr *costmodel.Tracker, c candidate, j int, stats *Stats)

// pending is a candidate in flight through the migrate supersteps with
// its destination-attempt counter.
type pending struct {
	c     candidate
	tries int
}

// migrateScratch holds every buffer the migrate superstep loop needs,
// allocated once per phase and reused across supersteps so the loop
// itself performs no heap allocation (TestProbeLoopAllocFree locks this). The
// probe pass only writes per-candidate verdict slots, so the scratch
// is owned by the coordinating goroutine and the determinism contract
// — identical Stats for any pool size — is untouched.
type migrateScratch struct {
	queue, rest []pending // double-buffered carry-over queues
	batch       []pending
	dest        []int
	verdict     []bool
	order       []int
	batchBudget []int // per-source-fragment budget, reset each superstep
	leftover    []candidate

	// probeChunk is the chunk function handed to pool.RunChunks; it
	// lives in the scratch (capturing only sc) so neither the superstep
	// loop nor a repeat call on warm scratch allocates a closure —
	// Pool.Run would wrap the per-index function in a fresh chunk
	// closure every superstep. The per-call inputs it reads are
	// re-bound below.
	probeChunk func(lo, hi int)
	tr         *costmodel.Tracker
	probe      probeFunc
	budget     float64
}

// grow readies the per-candidate buffers for n in-flight candidates;
// allocation happens only while a buffer is still cold.
func (s *migrateScratch) grow(n int) {
	if cap(s.batch) < n {
		s.batch = make([]pending, 0, n)
		s.rest = make([]pending, 0, n)
		s.dest = make([]int, 0, n)
		s.verdict = make([]bool, 0, n)
		s.order = make([]int, 0, n)
		s.leftover = make([]candidate, 0, n)
	}
}

// parallelMigrateCtx is the Section-5.3 BSP schedule for the migrate
// phases: in each superstep every overloaded fragment offers a batch
// of candidates round-robin to the underloaded workers; destinations
// probe their batch concurrently against the superstep-start state
// (on pl, one verdict slot per candidate, so the outcome is identical
// for any worker count), then accepted moves are applied at the
// barrier (with a re-check so a batch cannot overshoot the budget).
// Rejected candidates carry over to the next destination; candidates
// rejected everywhere are returned for ESplit/VMerge.
//
// Cancellation is observed at superstep boundaries: the supersteps
// already applied stand, the unprocessed queue is abandoned, and the
// ctx error is returned with the leftovers accumulated so far. sc
// supplies the superstep scratch (nil allocates a private one); the
// returned leftover slice aliases it, so callers must consume the
// leftovers before reusing sc.
func parallelMigrateCtx(ctx context.Context, pl *pool.Pool, tr *costmodel.Tracker, candidates []candidate, under []int, budget float64,
	batchSize int, probe probeFunc, apply applyFunc, stats *Stats, sc *migrateScratch) ([]candidate, error) {

	if len(under) == 0 {
		return candidates, nil
	}
	if sc == nil {
		sc = &migrateScratch{}
	}
	sc.grow(len(candidates))
	maxFrag := 0
	for _, c := range candidates {
		if c.frag >= maxFrag {
			maxFrag = c.frag + 1
		}
	}
	if cap(sc.batchBudget) < maxFrag {
		sc.batchBudget = make([]int, maxFrag)
	}
	sc.batchBudget = sc.batchBudget[:maxFrag]

	queue := sc.queue[:0]
	if cap(queue) < len(candidates) {
		queue = make([]pending, 0, len(candidates))
	}
	for _, c := range candidates {
		queue = append(queue, pending{c: c})
	}
	rest := sc.rest[:0]
	leftover := sc.leftover[:0]

	sc.tr, sc.probe, sc.budget = tr, probe, budget
	if sc.probeChunk == nil {
		sc.probeChunk = func(lo, hi int) {
			for k := lo; k < hi; k++ {
				sc.verdict[k] = sc.probe(sc.tr, sc.batch[k].c, sc.dest[k], sc.budget)
			}
		}
	}

	for len(queue) > 0 {
		if err := ctxErr(ctx); err != nil {
			sc.queue, sc.rest, sc.leftover = queue, rest, leftover
			return leftover, err
		}
		// Each superstep moves at most batchSize candidates per
		// overloaded fragment.
		for i := range sc.batchBudget {
			sc.batchBudget[i] = 0
		}
		sc.batch = sc.batch[:0]
		rest = rest[:0]
		for _, pd := range queue {
			if sc.batchBudget[pd.c.frag] < batchSize {
				sc.batchBudget[pd.c.frag]++
				sc.batch = append(sc.batch, pd)
			} else {
				rest = append(rest, pd)
			}
		}
		// Route each batched candidate to its round-robin destination.
		sc.dest = sc.dest[:0]
		for k, pd := range sc.batch {
			j := under[pd.tries%len(under)]
			if j == pd.c.frag {
				pd.tries++
				sc.batch[k] = pd
				j = under[pd.tries%len(under)]
			}
			sc.dest = append(sc.dest, j)
		}
		// Concurrent probe pass against the superstep-start state.
		sc.verdict = sc.verdict[:len(sc.batch)]
		for k := range sc.verdict {
			sc.verdict[k] = false
		}
		pl.RunChunks(len(sc.batch), 0, sc.probeChunk)
		// Apply at the barrier, destination by destination in order,
		// re-checking so that earlier acceptances are respected. The
		// ordering is a stable insertion sort on the destination ids —
		// the same permutation any stable sort produces, without a
		// closure or reflection allocation.
		sc.order = sc.order[:len(sc.batch)]
		for k := range sc.order {
			sc.order[k] = k
		}
		for a := 1; a < len(sc.order); a++ {
			k := sc.order[a]
			b := a
			for b > 0 && sc.dest[sc.order[b-1]] > sc.dest[k] {
				sc.order[b] = sc.order[b-1]
				b--
			}
			sc.order[b] = k
		}
		for _, k := range sc.order {
			pd := sc.batch[k]
			if sc.verdict[k] && probe(tr, pd.c, sc.dest[k], budget) {
				apply(tr, pd.c, sc.dest[k], stats)
				continue
			}
			pd.tries++
			if pd.tries >= len(under) {
				leftover = append(leftover, pd.c)
			} else {
				rest = append(rest, pd)
			}
		}
		queue, rest = rest, queue
	}
	sc.queue, sc.rest, sc.leftover = queue, rest, leftover
	return leftover, nil
}
