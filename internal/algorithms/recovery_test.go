package algorithms

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"adp/internal/costmodel"
	"adp/internal/engine"
	"adp/internal/fault"
	"adp/internal/gen"
	"adp/internal/partitioner"
	"adp/internal/pool"
	"adp/internal/refine"
)

// recoverySchedule mixes every fault class at coordinates every
// algorithm reaches (all five run at least three supersteps over four
// workers). Crash and transient trigger rollback-replay; drop/dup
// trigger redelivery; slow perturbs wall time only.
func recoverySchedule(t *testing.T) []fault.Event {
	t.Helper()
	events, err := fault.Parse("slow@0:w2:1ms,crash@1:w0,drop@1:d3#1,err@2:w1,dup@2:d2#0")
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// TestRecoveryDeterminism is the headline contract of the
// fault-tolerant runtime: for every algorithm, a run that crashes
// twice, loses and duplicates deliveries, and straggles must produce
// the exact outcome and Report of the fault-free run — SimCost,
// per-worker Work, MsgCount, MsgBytes and Supersteps bitwise
// identical. Swept over seeds and pool sizes (the CI fault matrix runs
// this test under -race).
func TestRecoveryDeterminism(t *testing.T) {
	opts := Options{CNTheta: 10, SSSPSource: 1}
	for _, seed := range []int64{1, 2, 3} {
		for _, workers := range []int{1, 4} {
			for _, algo := range costmodel.Algos() {
				t.Run(fmt.Sprintf("%v/seed=%d/workers=%d", algo, seed, workers), func(t *testing.T) {
					g := gen.PowerLaw(gen.PowerLawConfig{
						N: 300, AvgDeg: 5, Exponent: 2.2,
						Directed: algo != costmodel.TC, Seed: seed,
					})
					p, err := partitioner.HashEdgeCut(g, 4)
					if err != nil {
						t.Fatal(err)
					}
					// Refine so the run covers e-cut, v-cut and dummy
					// statuses, and check the invariants survived.
					refine.E2H(p, costmodel.Reference(algo), refine.Config{})
					if err := p.Validate(); err != nil {
						t.Fatalf("invalid partition after refinement: %v", err)
					}
					pl := pool.New(workers)
					defer pl.Close()

					want, err := Run(engine.NewCluster(p).UsePool(pl), algo, opts)
					if err != nil {
						t.Fatal(err)
					}
					inj := fault.NewInjector(recoverySchedule(t)...)
					got, err := Run(engine.NewCluster(p).UsePool(pl).Configure(engine.Options{Injector: inj}), algo, opts)
					if err != nil {
						t.Fatalf("recovered run failed: %v", err)
					}

					if got.Value != want.Value || got.Checksum != want.Checksum {
						t.Fatalf("outcome diverged: (%v,%d) vs (%v,%d)",
							got.Value, got.Checksum, want.Value, want.Checksum)
					}
					wr, gr := want.Report, got.Report
					if gr.Supersteps != wr.Supersteps {
						t.Fatalf("Supersteps: %d vs %d", gr.Supersteps, wr.Supersteps)
					}
					if gr.SimCost(engine.DefaultBytesWeight) != wr.SimCost(engine.DefaultBytesWeight) {
						t.Fatalf("SimCost: %v vs %v",
							gr.SimCost(engine.DefaultBytesWeight), wr.SimCost(engine.DefaultBytesWeight))
					}
					if !reflect.DeepEqual(gr.Work, wr.Work) {
						t.Fatalf("Work: %v vs %v", gr.Work, wr.Work)
					}
					if !reflect.DeepEqual(gr.MsgCount, wr.MsgCount) {
						t.Fatalf("MsgCount: %v vs %v", gr.MsgCount, wr.MsgCount)
					}
					if !reflect.DeepEqual(gr.MsgBytes, wr.MsgBytes) {
						t.Fatalf("MsgBytes: %v vs %v", gr.MsgBytes, wr.MsgBytes)
					}
					if gr.Recoveries < 2 { // crash@1 + err@2 both fire
						t.Fatalf("Recoveries = %d, want >= 2", gr.Recoveries)
					}
					// The partition is read-only to the engine: recovery
					// must leave the invariants intact.
					if err := p.Validate(); err != nil {
						t.Fatalf("invalid partition after recovery: %v", err)
					}
					// And the recovered outcome still matches the
					// sequential oracle.
					oracle := SeqOutcome(g, algo, opts)
					if got.Checksum != oracle.Checksum ||
						math.Abs(got.Value-oracle.Value) > 1e-6*(1+math.Abs(oracle.Value)) {
						t.Fatalf("recovered outcome diverged from oracle: (%v,%d) vs (%v,%d)",
							got.Value, got.Checksum, oracle.Value, oracle.Checksum)
					}
				})
			}
		}
	}
}

// TestRunnerAttachesPartialReport: when a run fails (here:
// non-convergence via a tiny superstep budget), the dispatcher must
// still hand back the engine's partial Report instead of discarding it.
func TestRunnerAttachesPartialReport(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 200, AvgDeg: 5, Exponent: 2.2, Directed: true, Seed: 7})
	p, err := partitioner.HashEdgeCut(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	c := engine.NewCluster(p).Configure(engine.Options{MaxSupersteps: 2})
	out, err := Run(c, costmodel.PR, Options{PRIterations: 10})
	if err == nil {
		t.Fatal("budget-2 PageRank run converged unexpectedly")
	}
	var fre *engine.FailedRunError
	if !errors.As(err, &fre) {
		t.Fatalf("err = %v, want *engine.FailedRunError", err)
	}
	if out.Report == nil || out.Report.Supersteps != 2 {
		t.Fatalf("partial report missing or wrong: %+v", out.Report)
	}
	if out.Report != fre.Report {
		t.Fatal("outcome report is not the error's partial report")
	}
}

// TestRecoveryWithRandomSchedule: a Random(seed)-generated schedule is
// replayable — two injectors built from the same seed drive two runs to
// identical reports.
func TestRecoveryWithRandomSchedule(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 250, AvgDeg: 5, Exponent: 2.2, Directed: true, Seed: 11})
	p, err := partitioner.HashEdgeCut(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{SSSPSource: 0}
	run := func() Outcome {
		t.Helper()
		inj := fault.NewInjector(fault.Random(99, 6, 4, 8)...)
		out, err := Run(engine.NewCluster(p).Configure(engine.Options{Injector: inj}), costmodel.WCC, opts)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	if a.Value != b.Value || a.Checksum != b.Checksum {
		t.Fatalf("outcomes diverged across identical seeds: (%v,%d) vs (%v,%d)",
			a.Value, a.Checksum, b.Value, b.Checksum)
	}
	if a.Report.SimCost(engine.DefaultBytesWeight) != b.Report.SimCost(engine.DefaultBytesWeight) {
		t.Fatal("SimCost diverged across identical seeds")
	}
}

// TestRecoveryOnWarmCluster: a cluster's workers reuse the previous
// Run's state as buffers, and a rollback swaps in checkpoint copies
// that carry only what Snapshot rewinds. A recovered run on a warm
// cluster, and a clean run after it, must still reproduce the cold
// run's outcome and Report exactly.
func TestRecoveryOnWarmCluster(t *testing.T) {
	opts := Options{CNTheta: 10, SSSPSource: 1}
	for _, algo := range costmodel.Algos() {
		g := gen.PowerLaw(gen.PowerLawConfig{N: 300, AvgDeg: 5, Exponent: 2.2, Directed: algo != costmodel.TC, Seed: 4})
		p, err := partitioner.GridVertexCut(g, 4)
		if err != nil {
			t.Fatal(err)
		}
		c := engine.NewCluster(p).UsePool(pool.Serial())
		want, err := Run(c, algo, opts)
		if err != nil {
			t.Fatal(err)
		}
		for run, injected := range []bool{true, false} {
			var inj *fault.Injector
			if injected {
				inj = fault.NewInjector(recoverySchedule(t)...)
			}
			got, err := Run(c.Configure(engine.Options{Injector: inj}), algo, opts)
			if err != nil {
				t.Fatalf("%v warm run %d: %v", algo, run, err)
			}
			wr, gr := want.Report, got.Report
			if got.Value != want.Value || got.Checksum != want.Checksum || gr.Supersteps != wr.Supersteps ||
				gr.CriticalWork != wr.CriticalWork || gr.CriticalBytes != wr.CriticalBytes ||
				!reflect.DeepEqual(gr.Work, wr.Work) || !reflect.DeepEqual(gr.MsgCount, wr.MsgCount) ||
				!reflect.DeepEqual(gr.MsgBytes, wr.MsgBytes) {
				t.Fatalf("%v warm run %d (injected=%v) diverged from the cold run: %v vs %v", algo, run, injected, gr, wr)
			}
			if injected && gr.Recoveries < 2 {
				t.Fatalf("%v: Recoveries = %d, want >= 2", algo, gr.Recoveries)
			}
		}
	}
}
