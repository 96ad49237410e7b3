package pool

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// TestRunCtxPreCancelled: a dead context runs nothing on a multi-worker
// pool and returns its error.
func TestRunCtxPreCancelled(t *testing.T) {
	p := New(4)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := p.RunCtx(ctx, 1000, func(i int) { ran.Add(1) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The submitting goroutine claims one chunk before its first ctx
	// check only if cancellation raced the claim; with a pre-cancelled
	// ctx nothing may run.
	if ran.Load() != 0 {
		t.Fatalf("%d items ran under a pre-cancelled context", ran.Load())
	}
}

// TestRunCtxCancelMidJob: after cancellation no further chunks start;
// in-flight items finish, so the executed count is a prefix-complete
// subset strictly smaller than n.
func TestRunCtxCancelMidJob(t *testing.T) {
	p := New(4)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 100_000
	var ran atomic.Int64
	err := p.RunChunksCtx(ctx, n, 1, func(lo, hi int) {
		if lo == 10 {
			cancel()
		}
		ran.Add(int64(hi - lo))
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got == 0 || got >= n {
		t.Fatalf("ran %d of %d items, want a proper non-empty subset", got, n)
	}
}

// TestRunCtxNilAndUncancelled: a nil-free happy path returns nil error
// and covers every index exactly once.
func TestRunCtxUncancelled(t *testing.T) {
	p := New(3)
	defer p.Close()
	const n = 512
	counts := make([]atomic.Int32, n)
	if err := p.RunCtx(context.Background(), n, func(i int) { counts[i].Add(1) }); err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if counts[i].Load() != 1 {
			t.Fatalf("index %d ran %d times", i, counts[i].Load())
		}
	}
}

// TestPanicPrecedenceOverCancellation: when a worker panics and the ctx
// is also cancelled, exactly one *Panic reaches the caller (panic wins
// over the error return) and the pool remains usable.
func TestPanicPrecedenceOverCancellation(t *testing.T) {
	p := New(4)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	panics := 0
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(*Panic); !ok {
					t.Fatalf("recovered %v, want *Panic", r)
				}
				panics++
			}
		}()
		_ = p.RunChunksCtx(ctx, 10_000, 1, func(lo, hi int) {
			if lo == 5 {
				cancel()
				panic("boom")
			}
		})
	}()
	if panics != 1 {
		t.Fatalf("saw %d panics, want exactly 1", panics)
	}
	// All workers released: the next job completes fully.
	var ran atomic.Int64
	p.Run(256, func(int) { ran.Add(1) })
	if ran.Load() != 256 {
		t.Fatalf("pool degraded after panic: %d/256", ran.Load())
	}
}

// TestMapCtxPartialResults: cancelled MapCtx returns the error and a
// full-length slice where unstarted slots hold zero values and started
// slots hold real results.
func TestMapCtxPartialResults(t *testing.T) {
	p := New(2)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := MapCtx(p, ctx, 64, func(i int) int { return i + 1 })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(out) != 64 {
		t.Fatalf("len(out) = %d, want 64", len(out))
	}
	for i, v := range out {
		if v != 0 && v != i+1 {
			t.Fatalf("slot %d holds %d, want 0 or %d", i, v, i+1)
		}
	}
	// Uncancelled MapCtx matches Map.
	out2, err := MapCtx(p, context.Background(), 8, func(i int) int { return i * i })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out2 {
		if v != i*i {
			t.Fatalf("slot %d = %d, want %d", i, v, i*i)
		}
	}
}

// TestRunChunksNilCtxUnchanged: the ctx-free entry points keep their
// original signature and never error internally.
func TestRunChunksNilCtxUnchanged(t *testing.T) {
	p := Serial()
	defer p.Close()
	var order []int
	p.RunChunks(6, 2, func(lo, hi int) { order = append(order, lo, hi) })
	want := []int{0, 2, 2, 4, 4, 6}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("serial chunk order = %v, want %v", order, want)
		}
	}
}
