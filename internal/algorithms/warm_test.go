package algorithms

import (
	"testing"

	"adp/internal/costmodel"
	"adp/internal/engine"
	"adp/internal/gen"
	"adp/internal/partitioner"
	"adp/internal/pool"
)

// TestWarmRunAllocs: a warm cluster's next Run of the same algorithm
// allocates only what it hands back and a fixed per-run overhead — the
// Report, the result vector, the step closures — however large the
// graph: state, inboxes, the sweep heap, the exchange arena and CN's
// aggregate message bodies are all reused. The bound is the same for a
// graph four times the size, which is what rules out per-vertex and
// per-message allocations. CN, which sends one rich aggregate message
// per worker, allocates no more than TC, whose count rides the scalar
// lane.
func TestWarmRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const workers, bound = 4, 20
	opts := Options{CNTheta: 60, SSSPSource: 1, PRIterations: 5}
	for _, n := range []int{500, 2000} {
		g := gen.PowerLaw(gen.PowerLawConfig{N: n, AvgDeg: 6, Exponent: 2.1, Seed: 17})
		p, err := partitioner.GridVertexCut(g, workers)
		if err != nil {
			t.Fatal(err)
		}
		c := engine.NewCluster(p).UsePool(pool.Serial())
		warm := map[costmodel.Algo]float64{}
		for _, algo := range []costmodel.Algo{costmodel.PR, costmodel.WCC, costmodel.SSSP, costmodel.TC, costmodel.CN} {
			run := func() {
				if _, err := Run(c, algo, opts); err != nil {
					t.Fatal(err)
				}
			}
			run() // builds the plan, sizes every buffer
			got := testing.AllocsPerRun(3, run)
			if got > bound {
				t.Errorf("N=%d %v: warm run allocates %.0f times, want <= %d", n, algo, got, bound)
			}
			warm[algo] = got
		}
		if warm[costmodel.CN] > warm[costmodel.TC] {
			t.Errorf("N=%d: warm CN run allocates %.0f times, TC %.0f", n, warm[costmodel.CN], warm[costmodel.TC])
		}
	}
}
