package algorithms

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"adp/internal/costmodel"
	"adp/internal/engine"
	"adp/internal/gen"
	"adp/internal/partitioner"
	"adp/internal/pool"
	"adp/internal/refine"
)

// countdownCtx reports context.Canceled from its n-th Err call on. The
// engine and the pool poll Err at every barrier and chunk claim, so n
// picks how far into a run the cancellation lands.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestRecoveryDeterminism: a cluster recovers from a failed run. For
// every algorithm, a run cancelled early (at a seed-chosen poll, from
// before the start to superstep 1) fails typed with its partial
// Report, and the next run on the same warm cluster reproduces the cold
// run's outcome and Report bitwise — the contract that lets serve hand
// a cluster back to its pool after a deadline. Swept over seeds and
// pool sizes.
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
					// Refine so the run covers e-cut, v-cut and dummy statuses.
					refine.E2H(p, costmodel.Reference(algo), refine.Config{})
					pl := pool.New(workers)
					defer pl.Close()
					want, err := Run(engine.NewCluster(p).UsePool(pl), algo, opts)
					if err != nil {
						t.Fatal(err)
					}

					c := engine.NewCluster(p).UsePool(pl)
					ctx := &countdownCtx{Context: context.Background()}
					ctx.left.Store(3*seed - 2)
					failed, err := Run(c.Configure(engine.Options{Context: ctx}), algo, opts)
					var fre *engine.FailedRunError
					if !errors.As(err, &fre) || !errors.Is(err, context.Canceled) {
						t.Fatalf("err = %v, want *engine.FailedRunError wrapping context.Canceled", err)
					}
					if failed.Report != fre.Report || failed.Report.Supersteps >= want.Report.Supersteps {
						t.Fatalf("partial report %+v, want the error's report short of %d supersteps",
							failed.Report, want.Report.Supersteps)
					}

					got, err := Run(c.Configure(engine.Options{}), algo, opts)
					if err != nil {
						t.Fatalf("run after the cancelled one failed: %v", err)
					}
					wr, gr := want.Report, got.Report
					if got.Value != want.Value || got.Checksum != want.Checksum || gr.Supersteps != wr.Supersteps ||
						gr.SimCost(engine.DefaultBytesWeight) != wr.SimCost(engine.DefaultBytesWeight) ||
						!reflect.DeepEqual(gr.Work, wr.Work) || !reflect.DeepEqual(gr.MsgCount, wr.MsgCount) ||
						!reflect.DeepEqual(gr.MsgBytes, wr.MsgBytes) {
						t.Fatalf("run after the cancelled one diverged from the cold run: %v vs %v", gr, wr)
					}
					if err := p.Validate(); err != nil {
						t.Fatalf("invalid partition after the failed run: %v", err)
					}
					oracle := SeqOutcome(g, algo, opts)
					if got.Checksum != oracle.Checksum ||
						math.Abs(got.Value-oracle.Value) > 1e-6*(1+math.Abs(oracle.Value)) {
						t.Fatalf("outcome diverged from oracle: (%v,%d) vs (%v,%d)",
							got.Value, got.Checksum, oracle.Value, oracle.Checksum)
					}
				})
			}
		}
	}
}
