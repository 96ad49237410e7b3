package engine

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"adp/internal/fault"
	"adp/internal/pool"
)

// ringState is the Snapshotter test state: workers pass values around a
// ring and accumulate them, so a botched rollback shows up as a skewed
// sum or double-counted work.
type ringState struct {
	sum  float64
	seen int
}

func (st *ringState) Snapshot() any { return &ringState{sum: st.sum, seen: st.seen} }

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

// assertReportsEqual checks the determinism contract: every field of
// the Report except WallTime and the fault diagnostics must match
// bitwise.
func assertReportsEqual(t *testing.T, want, got *Report) {
	t.Helper()
	if want.Supersteps != got.Supersteps {
		t.Fatalf("Supersteps: %d vs %d", want.Supersteps, got.Supersteps)
	}
	if want.CriticalWork != got.CriticalWork || want.CriticalBytes != got.CriticalBytes {
		t.Fatalf("critical path: (%v,%v) vs (%v,%v)",
			want.CriticalWork, want.CriticalBytes, got.CriticalWork, got.CriticalBytes)
	}
	if want.SimCost(DefaultBytesWeight) != got.SimCost(DefaultBytesWeight) {
		t.Fatalf("SimCost: %v vs %v", want.SimCost(DefaultBytesWeight), got.SimCost(DefaultBytesWeight))
	}
	if !reflect.DeepEqual(want.Work, got.Work) {
		t.Fatalf("Work: %v vs %v", want.Work, got.Work)
	}
	if !reflect.DeepEqual(want.MsgCount, got.MsgCount) {
		t.Fatalf("MsgCount: %v vs %v", want.MsgCount, got.MsgCount)
	}
	if !reflect.DeepEqual(want.MsgBytes, got.MsgBytes) {
		t.Fatalf("MsgBytes: %v vs %v", want.MsgBytes, got.MsgBytes)
	}
}

func ringStates(c *Cluster) []ringState {
	out := make([]ringState, c.n)
	for i := 0; i < c.n; i++ {
		out[i] = *c.Worker(i).State.(*ringState)
	}
	return out
}

// TestRecoveryDeterminismEngine is the engine-level half of the
// headline contract: a run that crashes, errs, drops, duplicates and
// straggles must produce the exact Report and final worker states of
// the fault-free run.
func TestRecoveryDeterminismEngine(t *testing.T) {
	const rounds = 4
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			pl := pool.New(workers)
			defer pl.Close()

			base := testCluster(t, 3).UsePool(pl)
			init, step := ringProgram(rounds)
			wantRep, err := base.Run(init, step, 20)
			if err != nil {
				t.Fatal(err)
			}
			wantStates := ringStates(base)

			events, err := fault.Parse("slow@0:w0:1ms,crash@1:w1,drop@1:d1#2,err@2:w0,dup@2:d0#1,crash@3:w2")
			if err != nil {
				t.Fatal(err)
			}
			faulty := testCluster(t, 3).UsePool(pl).Configure(Options{Injector: fault.NewInjector(events...)})
			init2, step2 := ringProgram(rounds)
			gotRep, err := faulty.Run(init2, step2, 20)
			if err != nil {
				t.Fatal(err)
			}
			assertReportsEqual(t, wantRep, gotRep)
			if !reflect.DeepEqual(wantStates, ringStates(faulty)) {
				t.Fatalf("worker states diverged: %v vs %v", wantStates, ringStates(faulty))
			}
			if gotRep.Recoveries < 3 { // two crashes + one transient
				t.Fatalf("Recoveries = %d, want >= 3", gotRep.Recoveries)
			}
			if gotRep.Redelivered < 1 {
				t.Fatalf("Redelivered = %d, want >= 1", gotRep.Redelivered)
			}
			if gotRep.Stragglers != 1 {
				t.Fatalf("Stragglers = %d, want 1", gotRep.Stragglers)
			}
		})
	}
}

// TestCrashSweepEveryCoordinate exhausts the (superstep, worker, kind)
// grid: a crash or transient anywhere in the run must never perturb the
// deterministic report.
func TestCrashSweepEveryCoordinate(t *testing.T) {
	const rounds = 3
	base := testCluster(t, 3)
	init, step := ringProgram(rounds)
	wantRep, err := base.Run(init, step, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []fault.Kind{fault.Crash, fault.Transient} {
		for s := 0; s <= rounds; s++ {
			for w := 0; w < 3; w++ {
				ev := fault.Event{Kind: kind, Superstep: s, Worker: w}
				t.Run(ev.String(), func(t *testing.T) {
					c := testCluster(t, 3).Configure(Options{Injector: fault.NewInjector(ev)})
					i2, s2 := ringProgram(rounds)
					gotRep, err := c.Run(i2, s2, 20)
					if err != nil {
						t.Fatal(err)
					}
					assertReportsEqual(t, wantRep, gotRep)
					if gotRep.Recoveries != 1 {
						t.Fatalf("Recoveries = %d, want 1", gotRep.Recoveries)
					}
				})
			}
		}
	}
}

// TestCheckpointCadence: with CheckpointEvery > 1 the rollback replays
// more supersteps but must land on the same report.
func TestCheckpointCadence(t *testing.T) {
	const rounds = 5
	base := testCluster(t, 3)
	init, step := ringProgram(rounds)
	wantRep, err := base.Run(init, step, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, every := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("every=%d", every), func(t *testing.T) {
			c := testCluster(t, 3).Configure(Options{
				CheckpointEvery: every,
				Injector:        fault.NewInjector(fault.Event{Kind: fault.Crash, Superstep: 4, Worker: 1}),
			})
			i2, s2 := ringProgram(rounds)
			gotRep, err := c.Run(i2, s2, 20)
			if err != nil {
				t.Fatal(err)
			}
			assertReportsEqual(t, wantRep, gotRep)
		})
	}
}

// TestRecoveryBudgetExhausted: more injected crashes than MaxRecoveries
// allows must surface as a typed failure with the partial report.
func TestRecoveryBudgetExhausted(t *testing.T) {
	crash := fault.Event{Kind: fault.Crash, Superstep: 1, Worker: 0}
	c := testCluster(t, 3).Configure(Options{
		MaxRecoveries: 2,
		Injector:      fault.NewInjector(crash, crash, crash),
	})
	init, step := ringProgram(4)
	rep, err := c.Run(init, step, 20)
	var fre *FailedRunError
	if !errors.As(err, &fre) {
		t.Fatalf("err = %v, want *FailedRunError", err)
	}
	if fre.Reason != "recovery budget exhausted" {
		t.Fatalf("Reason = %q", fre.Reason)
	}
	if fre.Report == nil || rep == nil || fre.Report != rep {
		t.Fatal("partial report not carried on the error")
	}
	if rep.Recoveries != 3 {
		t.Fatalf("Recoveries = %d, want 3", rep.Recoveries)
	}
}

// TestStepPanicRecovered: a step panic under checkpointing is a
// transient fault — rolled back, replayed, and invisible in the report.
func TestStepPanicRecovered(t *testing.T) {
	const rounds = 4
	base := testCluster(t, 3)
	init, step := ringProgram(rounds)
	wantRep, err := base.Run(init, step, 20)
	if err != nil {
		t.Fatal(err)
	}
	c := testCluster(t, 3).Configure(Options{CheckpointEvery: 1})
	var fired atomic.Bool
	i2, s2 := ringProgram(rounds)
	wrapped := func(w *WorkerCtx, s int, inbox []Message) bool {
		if s == 2 && w.ID() == 1 && fired.CompareAndSwap(false, true) {
			panic("poisoned step")
		}
		return s2(w, s, inbox)
	}
	gotRep, err := c.Run(i2, wrapped, 20)
	if err != nil {
		t.Fatal(err)
	}
	assertReportsEqual(t, wantRep, gotRep)
	if gotRep.Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1", gotRep.Recoveries)
	}
}

// TestStepPanicBudgetExhausted: a step that panics on every attempt
// exhausts the budget and the *pool.Panic surfaces through the typed
// error, with the pool still usable afterwards.
func TestStepPanicBudgetExhausted(t *testing.T) {
	pl := pool.New(4)
	defer pl.Close()
	c := testCluster(t, 3).UsePool(pl).Configure(Options{CheckpointEvery: 1, MaxRecoveries: 2})
	init, inner := ringProgram(4)
	step := func(w *WorkerCtx, s int, inbox []Message) bool {
		if s == 1 && w.ID() == 0 {
			panic("always poisoned")
		}
		return inner(w, s, inbox)
	}
	_, err := c.Run(init, step, 20)
	var fre *FailedRunError
	if !errors.As(err, &fre) || fre.Reason != "recovery budget exhausted" {
		t.Fatalf("err = %v, want budget exhaustion", err)
	}
	var pv *pool.Panic
	if !errors.As(err, &pv) {
		t.Fatalf("err %v does not unwrap to *pool.Panic", err)
	}
	// The pool's helpers must have drained: it still serves jobs.
	var n atomic.Int64
	pl.Run(64, func(int) { n.Add(1) })
	if n.Load() != 64 {
		t.Fatalf("pool degraded after recovery failure: %d/64", n.Load())
	}
}

// TestStepPanicWithoutFaultTolerance: with zero Options a step panic
// ends the run with the typed error — the *pool.Panic as its cause and
// the partial report of the supersteps before it — instead of
// panicking out of Run past the caller's cleanup.
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

	// Options.MaxSupersteps overrides the call-site budget.
	c2 := testCluster(t, 2).Configure(Options{MaxSupersteps: 3})
	_, err = c2.Run(nil, step, 50)
	if !errors.As(err, &fre) || fre.Reason != "no convergence within 3 supersteps" {
		t.Fatalf("err = %v, want budget-3 non-convergence", err)
	}
}

// TestSnapshotterRequired: checkpointing demands the Snapshotter
// contract from worker state and fails the run cleanly otherwise.
func TestSnapshotterRequired(t *testing.T) {
	c := testCluster(t, 2).Configure(Options{CheckpointEvery: 1})
	init := func(w *WorkerCtx) { w.State = 42 } // not a Snapshotter
	step := func(w *WorkerCtx, s int, inbox []Message) bool { return true }
	_, err := c.Run(init, step, 5)
	var fre *FailedRunError
	if !errors.As(err, &fre) || fre.Reason != "checkpoint failed" {
		t.Fatalf("err = %v, want checkpoint failure", err)
	}
}
