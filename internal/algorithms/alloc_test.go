package algorithms

import (
	"testing"

	"adp/internal/costmodel"
	"adp/internal/engine"
	"adp/internal/gen"
	"adp/internal/partitioner"
	"adp/internal/pool"
)

// The PR superstep loop — dense state updates, SendVal partials and
// rank broadcasts, delivery, accounting — must not allocate once
// buffers are warm. Measured as a delta so per-Run fixed allocations
// (state, report, result collection) cancel out: extra iterations must
// come allocation-free.
func TestRunPRSteadyStateZeroAllocs(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 1500, AvgDeg: 6, Exponent: 2.1, Directed: true, Seed: 11})
	p, err := partitioner.FennelEdgeCut(g, 4, partitioner.FennelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	c := engine.NewCluster(p).UsePool(pool.Serial())
	run := func(iters int) func() {
		o := Options{PRIterations: iters}
		return func() {
			if _, err := Run(c, costmodel.PR, o); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(24)() // warm outboxes, inboxes and state capacities
	short := testing.AllocsPerRun(5, run(3))
	long := testing.AllocsPerRun(5, run(24))
	if long > short {
		t.Fatalf("24-iteration PR allocates %.1f, 3-iteration PR %.1f: %.2f allocs per extra superstep, want 0",
			long, short, (long-short)/42)
	}
}
