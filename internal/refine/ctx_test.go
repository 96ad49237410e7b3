package refine

import (
	"context"
	"errors"
	"testing"

	"adp/internal/costmodel"
	"adp/internal/partitioner"
)

// TestRefineCtxPreCancelled: a dead context stops every ctx-aware
// refiner before it migrates anything; the partial Stats come back with
// the ctx error.
func TestRefineCtxPreCancelled(t *testing.T) {
	g := skewedDirected()
	m := costmodel.Reference(costmodel.CN)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	runs := map[string]func() (*Stats, error){
		"E2HCtx": func() (*Stats, error) {
			return E2HCtx(ctx, hubConcentratedEdgeCut(t, g, 4), m, Config{})
		},
		"ParE2HCtx": func() (*Stats, error) {
			return E2HCtx(ctx, hubConcentratedEdgeCut(t, g, 4), m, Config{Parallel: true})
		},
		"V2HCtx": func() (*Stats, error) {
			p, err := partitioner.GridVertexCut(g, 4)
			if err != nil {
				t.Fatal(err)
			}
			return V2HCtx(ctx, p, m, Config{})
		},
		"ParV2HCtx": func() (*Stats, error) {
			p, err := partitioner.GridVertexCut(g, 4)
			if err != nil {
				t.Fatal(err)
			}
			return V2HCtx(ctx, p, m, Config{Parallel: true})
		},
	}
	for name, run := range runs {
		t.Run(name, func(t *testing.T) {
			stats, err := run()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if stats == nil {
				t.Fatal("partial stats not returned")
			}
			if stats.Migrated != 0 || stats.SplitEdges != 0 || stats.MastersMoved != 0 {
				t.Fatalf("pre-cancelled refiner still refined: %+v", stats)
			}
		})
	}
}

// TestE2HCtxMidwayKeepsPartitionValid: cancelling after a couple of
// candidates leaves a usable, invariant-clean partition behind — the
// abort contract of the ctx-aware refiners.
func TestE2HCtxMidwayKeepsPartitionValid(t *testing.T) {
	g := skewedDirected()
	m := costmodel.Reference(costmodel.CN)
	full := hubConcentratedEdgeCut(t, g, 4)
	fullStats := E2H(full, m, Config{})
	if fullStats.Migrated < 2 {
		t.Skipf("fixture only migrates %d; nothing to interrupt", fullStats.Migrated)
	}

	p := hubConcentratedEdgeCut(t, g, 4)
	ctx, cancel := context.WithCancel(context.Background())
	polls := 0
	// The serial refiner polls the context once per candidate; cancel
	// after the second poll so exactly one candidate was processed.
	watch := &pollCtx{Context: ctx, onErr: func() {
		polls++
		if polls == 2 {
			cancel()
		}
	}}
	stats, err := E2HCtx(watch, p, m, Config{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stats.Migrated >= fullStats.Migrated {
		t.Fatalf("cancelled run migrated %d, full run %d — cancellation did not interrupt",
			stats.Migrated, fullStats.Migrated)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("partition invalid after cancelled refinement: %v", err)
	}
}

// TestE2HCtxUncancelledMatchesPlain: a background context changes
// nothing — the ctx entry point is the same algorithm.
func TestE2HCtxUncancelledMatchesPlain(t *testing.T) {
	g := skewedDirected()
	m := costmodel.Reference(costmodel.CN)
	want := E2H(hubConcentratedEdgeCut(t, g, 4), m, Config{})
	got, err := E2HCtx(context.Background(), hubConcentratedEdgeCut(t, g, 4), m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Migrated != want.Migrated || got.SplitEdges != want.SplitEdges ||
		got.Merged != want.Merged || got.MastersMoved != want.MastersMoved {
		t.Fatalf("ctx run diverged from plain run:\n got %v\nwant %v", got, want)
	}
}

// TestForFamilyCtxDispatch: the family dispatcher routes to the ctx
// variants and treats hybrid as a no-op.
func TestForFamilyCtxDispatch(t *testing.T) {
	g := skewedDirected()
	m := costmodel.Reference(costmodel.CN)
	p := hubConcentratedEdgeCut(t, g, 4)
	stats, err := ForFamilyCtx(context.Background(), partitioner.EdgeCutFamily, p, m, Config{})
	if err != nil || stats == nil {
		t.Fatalf("edge-cut dispatch: %v, %v", stats, err)
	}
	hs, err := ForFamilyCtx(context.Background(), partitioner.HybridFamily, p, m, Config{})
	if err != nil || hs != nil {
		t.Fatalf("hybrid dispatch should be a no-op, got %v, %v", hs, err)
	}
}

// pollCtx counts Err polls so tests can cancel after a fixed number of
// refiner iterations without touching wall time.
type pollCtx struct {
	context.Context
	onErr func()
}

func (c *pollCtx) Err() error {
	c.onErr()
	return c.Context.Err()
}
