package pool

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Panic carries a panic captured on a pool worker back to the caller
// of Run. The pool re-raises it as panic(*Panic) once every in-flight
// chunk has drained, so the first worker failure is observed exactly
// once, on the submitting goroutine, with the worker's stack attached.
type Panic struct {
	// Value is the value originally passed to panic on the worker.
	Value any
	// Stack is the worker goroutine's stack at recovery time.
	Stack []byte
}

// Error makes *Panic usable with recover-and-inspect error handling.
func (p *Panic) Error() string {
	return fmt.Sprintf("pool: worker panic: %v", p.Value)
}

// String returns the panic value with the captured worker stack.
func (p *Panic) String() string {
	return fmt.Sprintf("pool: worker panic: %v\n%s", p.Value, p.Stack)
}

// Pool is a bounded, reusable fan-out runtime for index-range
// parallelism. A Pool of k workers executes Run/RunChunks/Map calls on
// at most k goroutines total: the caller's own goroutine plus up to
// k-1 long-lived helpers that park on a channel between jobs. Chunks
// are claimed from a shared atomic cursor ("work-stealing lite"), so
// load balances dynamically without per-item goroutine spawns.
//
// A Pool with one worker runs everything on the caller's goroutine in
// ascending index order — the deterministic single-threaded mode the
// determinism tests pin engine and refiner outputs against. Because
// every Run writes result i to a caller-presized slot i, outputs are
// required to be bitwise identical across worker counts; the pool's
// tests and the engine/refine determinism tests enforce this.
//
// Nested Run calls are safe: helper handoff is non-blocking, so a
// worker that itself calls Run simply executes the inner job on its
// own goroutine when no sibling is idle. The wait graph is therefore
// acyclic and the pool cannot deadlock on itself.
type Pool struct {
	workers int

	once sync.Once
	jobs chan *job
}

// New returns a pool of the given worker count. workers <= 0 sizes the
// pool to runtime.GOMAXPROCS(0). Helper goroutines start lazily on the
// first parallel Run and persist until Close.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers, jobs: make(chan *job)}
}

// Serial returns a single-worker pool: every job runs on the caller's
// goroutine in ascending index order. This is the deterministic mode
// used by tests.
func Serial() *Pool { return New(1) }

// Workers returns the concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// Close releases the helper goroutines. The pool must not be used
// after Close; the process-wide Default pool is never closed.
func (p *Pool) Close() {
	p.once.Do(func() {}) // forbid a post-Close lazy start
	close(p.jobs)
}

var (
	defaultMu   sync.Mutex
	defaultPool *Pool
)

// Default returns the process-wide shared pool, created on first use
// with GOMAXPROCS workers. Engine supersteps, parallel refiners,
// metric evaluation and the bench drivers all share it, so total
// fan-out stays bounded by one audited knob.
func Default() *Pool {
	defaultMu.Lock()
	defer defaultMu.Unlock()
	if defaultPool == nil {
		defaultPool = New(0)
	}
	return defaultPool
}

// SetDefaultWorkers replaces the process-wide pool with one of the
// given size (<= 0 restores GOMAXPROCS sizing). Intended for cmd-layer
// flags at startup; callers holding the previous Default pool keep a
// working (closed-helper-free) handle because the old pool is closed
// only after the swap.
func SetDefaultWorkers(workers int) {
	defaultMu.Lock()
	old := defaultPool
	defaultPool = New(workers)
	defaultMu.Unlock()
	if old != nil {
		old.Close()
	}
}

// job is one Run invocation: a shared cursor over n items that workers
// drain in chunk-sized claims.
type job struct {
	n     int
	chunk int
	fn    func(lo, hi int)
	// ctx, when non-nil, aborts further chunk claims once cancelled;
	// in-flight chunks always finish (cancellation is a barrier-level
	// contract, not a preemption).
	ctx context.Context

	next   atomic.Int64
	failed atomic.Bool
	pval   atomic.Pointer[Panic]
	wg     sync.WaitGroup
}

// work drains the cursor until the job is exhausted, cancelled, or a
// worker panicked.
func (j *job) work() {
	for !j.failed.Load() {
		if j.ctx != nil && j.ctx.Err() != nil {
			return
		}
		hi := int(j.next.Add(int64(j.chunk)))
		lo := hi - j.chunk
		if lo >= j.n {
			return
		}
		if hi > j.n {
			hi = j.n
		}
		j.call(lo, hi)
	}
}

// call executes one chunk, recording the first panic and aborting the
// remaining chunks.
func (j *job) call(lo, hi int) {
	defer func() {
		if r := recover(); r != nil {
			if j.failed.CompareAndSwap(false, true) {
				j.pval.Store(&Panic{Value: r, Stack: debug.Stack()})
			}
		}
	}()
	j.fn(lo, hi)
}

// start launches the workers-1 long-lived helpers (the caller of every
// Run is the pool's remaining worker).
func (p *Pool) start() {
	for i := 0; i < p.workers-1; i++ {
		go func() {
			for j := range p.jobs {
				j.work()
				j.wg.Done()
			}
		}()
	}
}

// Run invokes fn(i) for every i in [0, n), distributing contiguous
// index chunks over the pool's workers, and returns when all n calls
// completed. If any call panics, Run waits for in-flight chunks,
// skips unstarted ones, and re-panics with a *Panic on the caller.
//
// fn must not mutate state shared across indexes; writes belong in
// pre-sized per-index slots so the result is independent of worker
// count and chunk schedule.
func (p *Pool) Run(n int, fn func(i int)) {
	p.RunChunks(n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// RunChunks is Run with caller-visible chunking: fn is invoked with
// disjoint half-open ranges [lo, hi) covering [0, n). chunk <= 0
// selects a size that yields ~8 claims per worker, balancing steal
// granularity against cursor contention; chunk = 1 forces per-item
// claims (useful when per-item cost is large and skewed).
func (p *Pool) RunChunks(n, chunk int, fn func(lo, hi int)) {
	p.runChunksCtx(nil, n, chunk, fn) // nil ctx: never returns an error
}

// RunCtx is Run with cancellation: once ctx is cancelled no further
// items start, in-flight items finish, and the ctx error is returned.
// A worker panic still re-raises as *Panic and takes precedence over
// the ctx error.
func (p *Pool) RunCtx(ctx context.Context, n int, fn func(i int)) error {
	return p.RunChunksCtx(ctx, n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// RunChunksCtx is RunChunks with cancellation; see RunCtx for the
// abort contract.
func (p *Pool) RunChunksCtx(ctx context.Context, n, chunk int, fn func(lo, hi int)) error {
	return p.runChunksCtx(ctx, n, chunk, fn)
}

func (p *Pool) runChunksCtx(ctx context.Context, n, chunk int, fn func(lo, hi int)) error {
	if n <= 0 {
		return nil
	}
	if p.workers == 1 {
		return p.runSerial(ctx, n, chunk, fn)
	}
	if chunk <= 0 {
		chunk = n / (p.workers * 8)
		if chunk < 1 {
			chunk = 1
		}
	}
	j := &job{n: n, chunk: chunk, fn: fn, ctx: ctx}
	chunks := (n + chunk - 1) / chunk
	if helpers := min(p.workers, chunks) - 1; helpers > 0 {
		p.once.Do(p.start)
		for i := 0; i < helpers; i++ {
			j.wg.Add(1)
			select {
			case p.jobs <- j:
			default:
				// No helper is parked right now (they are busy or we
				// are inside a nested Run): do the work ourselves
				// rather than queueing — this keeps the wait graph
				// acyclic.
				j.wg.Done()
				i = helpers
			}
		}
	}
	j.work()
	j.wg.Wait()
	if pv := j.pval.Load(); pv != nil {
		panic(pv)
	}
	return ctxErr(ctx)
}

// runSerial is the single-worker fast path: chunks run on the caller's
// goroutine in ascending order with no job bookkeeping, so a serial
// fan-out performs zero heap allocations (the engine's steady-state
// allocation guards run against pool.Serial and rely on this). The
// panic contract is unchanged: the first chunk panic re-raises as
// *Panic and the remaining chunks are skipped.
func (p *Pool) runSerial(ctx context.Context, n, chunk int, fn func(lo, hi int)) error {
	if chunk <= 0 {
		chunk = n
	}
	for lo := 0; lo < n; lo += chunk {
		if ctx != nil && ctx.Err() != nil {
			break
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		callSerial(fn, lo, hi)
	}
	return ctxErr(ctx)
}

func callSerial(fn func(lo, hi int), lo, hi int) {
	defer func() {
		if r := recover(); r != nil {
			panic(&Panic{Value: r, Stack: debug.Stack()})
		}
	}()
	fn(lo, hi)
}

func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// Map runs fn over [0, n) on p and collects the results into a
// pre-sized slice, one slot per index — the write discipline that
// makes pool output independent of worker count.
func Map[T any](p *Pool, n int, fn func(i int) T) []T {
	out := make([]T, n)
	p.Run(n, func(i int) {
		out[i] = fn(i)
	})
	return out
}

// MapCtx is Map with cancellation: slots whose items never started
// (because ctx was cancelled) keep their zero value, and the ctx error
// is returned alongside the partial result.
func MapCtx[T any](p *Pool, ctx context.Context, n int, fn func(i int) T) ([]T, error) {
	out := make([]T, n)
	err := p.RunCtx(ctx, n, func(i int) {
		out[i] = fn(i)
	})
	return out, err
}
