package refine

import (
	"context"
	"testing"

	"adp/internal/costmodel"
	"adp/internal/gen"
	"adp/internal/partitioner"
	"adp/internal/pool"
)

// TestProbeLoopAllocFree locks the flattened probe plane: on warmed
// scratch a full parallelMigrate run (several supersteps of batching,
// routing, probing and ordered carry-over) performs zero heap
// allocations. A deterministic EMigrate workload whose probes all
// reject (so only the probe plane runs) is driven repeatedly through
// parallelMigrateCtx with a shared migrateScratch; each run spans
// several supersteps, so 0 per run bounds the per-superstep count at 0.
// Measured on the serial pool, like the engine's step-loop allocation
// lock: the worker handoff of larger pools is the pool package's own
// concern.
func TestProbeLoopAllocFree(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 600, AvgDeg: 6, Exponent: 2.2, Directed: true, Seed: 11})
	ec, err := partitioner.FennelEdgeCut(g, 4, partitioner.FennelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tr := costmodel.NewTracker(ec, goldenLearnedModel())
	candidates := getCandidates(tr, 0, 0, &BFS{})
	if len(candidates) == 0 {
		t.Fatal("no migration candidates")
	}
	under := []int{1, 2, 3}
	pl := pool.Serial()
	sc := &migrateScratch{}
	stats := &Stats{}
	ctx := context.Background()
	run := func() {
		// Budget -1 rejects every probe: nothing is applied, the
		// partition and tracker stay untouched, and every superstep
		// buffer is reused from sc.
		_, _ = parallelMigrateCtx(ctx, pl, tr, candidates, under, -1, 64, eMigrateProbe, eMigrateApply, stats, sc)
	}
	run() // warm the scratch
	if a := testing.AllocsPerRun(20, run); a != 0 {
		t.Fatalf("probe superstep loop: %v allocs/run on warmed scratch, want 0", a)
	}
}
