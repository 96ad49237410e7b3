package engine

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"adp/internal/pool"
)

// ringState is the ring test state: workers pass values around a ring
// and accumulate them.
type ringState struct {
	sum  float64
	seen int
}

// ringProgram runs `rounds` message-passing supersteps and halts at the
// quiescent barrier after them, charging deterministic per-worker work.
func ringProgram(rounds int) (func(*WorkerCtx), StepFunc) {
	init := func(w *WorkerCtx) { w.State = &ringState{} }
	step := func(w *WorkerCtx, s int, inbox []Message) bool {
		st := w.State.(*ringState)
		for _, m := range inbox {
			st.sum += m.Data[0]
			st.seen++
		}
		w.AddWork(float64(w.ID()+1) * float64(s+1))
		if s < rounds {
			w.Send((w.ID()+1)%w.NumWorkers(), Message{Data: []float64{float64(w.ID()) + float64(s)*0.5}})
			return false
		}
		return true
	}
	return init, step
}

// TestRunCtxCancelledBeforeStart: a dead context fails fast with the
// typed error and an empty (but non-nil) report.
func TestRunCtxCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := testCluster(t, 2)
	init, step := ringProgram(3)
	rep, err := c.RunCtx(ctx, init, step, 20)
	var fre *FailedRunError
	if !errors.As(err, &fre) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want FailedRunError wrapping context.Canceled", err)
	}
	if rep == nil || rep.Supersteps != 0 {
		t.Fatalf("report = %+v, want zero supersteps", rep)
	}
}

// TestRunCtxCancelMidRun: cancelling during superstep 2 returns within
// that barrier; the partial report covers exactly the completed
// supersteps and the partial superstep is discarded.
func TestRunCtxCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := testCluster(t, 3)
	init, inner := ringProgram(10)
	step := func(w *WorkerCtx, s int, inbox []Message) bool {
		if s == 2 && w.ID() == 0 {
			cancel()
		}
		return inner(w, s, inbox)
	}
	rep, err := c.RunCtx(ctx, init, step, 20)
	var fre *FailedRunError
	if !errors.As(err, &fre) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want FailedRunError wrapping context.Canceled", err)
	}
	if fre.Report != rep {
		t.Fatal("error does not carry the returned report")
	}
	if rep.Supersteps != 2 {
		t.Fatalf("Supersteps = %d, want 2 (partial superstep discarded)", rep.Supersteps)
	}
	// Only completed supersteps are accounted: worker 0 charged
	// 1*(0+1) + 1*(1+1) = 3 work units over supersteps 0 and 1.
	if rep.Work[0] != 3 {
		t.Fatalf("Work[0] = %v, want 3", rep.Work[0])
	}
}

// TestRunCtxDeadline: a deadline works through the same path as manual
// cancellation. Superstep 1 blocks until the deadline fires, so the run
// ends there whatever the speed of the machine.
func TestRunCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	c := testCluster(t, 2)
	step := func(w *WorkerCtx, s int, inbox []Message) bool {
		if s == 1 {
			<-ctx.Done()
		}
		w.Send((w.ID()+1)%2, Message{Data: []float64{1}})
		return false
	}
	rep, err := c.RunCtx(ctx, nil, step, 1_000_000)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if rep.Supersteps != 1 {
		t.Fatalf("Supersteps = %d, want 1", rep.Supersteps)
	}
}

// TestOptionsContextUsedByRun: Run (no explicit ctx) observes
// Options.Context.
func TestOptionsContextUsedByRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := testCluster(t, 2).Configure(Options{Context: ctx})
	init, step := ringProgram(3)
	_, err := c.Run(init, step, 20)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled via Options.Context", err)
	}
}

// TestCancelNoGoroutineLeak: repeated cancelled runs must not grow the
// goroutine count — the pool's helpers are long-lived and merely go
// idle, and the engine spawns nothing of its own.
func TestCancelNoGoroutineLeak(t *testing.T) {
	pl := pool.New(4)
	defer pl.Close()
	c := testCluster(t, 3).UsePool(pl)

	// Warm the pool so its long-lived helpers exist before baselining.
	init, step := ringProgram(3)
	if _, err := c.Run(init, step, 20); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	base := runtime.NumGoroutine()

	for i := 0; i < 50; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		i2, inner := ringProgram(10)
		s2 := func(w *WorkerCtx, s int, inbox []Message) bool {
			if s == 1 && w.ID() == 0 {
				cancel()
			}
			return inner(w, s, inbox)
		}
		if _, err := c.RunCtx(ctx, i2, s2, 20); !errors.Is(err, context.Canceled) {
			t.Fatalf("run %d: err = %v", i, err)
		}
		cancel()
	}
	// Allow any stragglers to park.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines grew from %d to %d after 50 cancelled runs", base, runtime.NumGoroutine())
}

// TestStepPanicWithoutFaultTolerance: a step panic ends the run with
// the typed error — the *pool.Panic as its cause and the partial report
// of the supersteps before it — instead of panicking out of Run past
// the caller's cleanup.
func TestStepPanicWithoutFaultTolerance(t *testing.T) {
	c := testCluster(t, 3)
	init, inner := ringProgram(4)
	step := func(w *WorkerCtx, s int, inbox []Message) bool {
		if s == 1 && w.ID() == 0 {
			panic("unprotected")
		}
		return inner(w, s, inbox)
	}
	rep, err := c.Run(init, step, 20)
	var fre *FailedRunError
	if !errors.As(err, &fre) || fre.Reason != "step panicked" {
		t.Fatalf("err = %v, want a step-panic *FailedRunError", err)
	}
	var pv *pool.Panic
	if !errors.As(err, &pv) || pv.Value != "unprotected" {
		t.Fatalf("err %v does not unwrap to the step's *pool.Panic", err)
	}
	if rep == nil || fre.Report != rep || rep.Supersteps != 1 {
		t.Fatalf("partial report %+v, want superstep 0 accounted and carried on the error", rep)
	}
}

// TestNonConvergenceTypedError: the non-convergence path returns the
// typed error carrying the partial report instead of discarding it.
func TestNonConvergenceTypedError(t *testing.T) {
	c := testCluster(t, 2)
	step := func(w *WorkerCtx, s int, inbox []Message) bool {
		w.AddWork(1)
		w.Send((w.ID()+1)%2, Message{Data: []float64{1}})
		return false
	}
	rep, err := c.Run(nil, step, 5)
	var fre *FailedRunError
	if !errors.As(err, &fre) {
		t.Fatalf("err = %v, want *FailedRunError", err)
	}
	if fre.Reason != "no convergence within 5 supersteps" {
		t.Fatalf("Reason = %q", fre.Reason)
	}
	if rep == nil || rep.Supersteps != 5 || rep.Work[0] != 5 {
		t.Fatalf("partial report wrong: %+v", rep)
	}
}
