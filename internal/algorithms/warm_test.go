package algorithms

import (
	"reflect"
	"runtime"
	"testing"

	"adp/internal/composite"
	"adp/internal/costmodel"
	"adp/internal/engine"
	"adp/internal/gen"
	"adp/internal/graph"
	"adp/internal/partition"
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

// warmComposites builds the run batch's two composite shapes over g:
// ME2H over a Fennel edge cut and MV2H over a Grid vertex cut, each
// bundling a partition per reference model.
func warmComposites(t *testing.T, g *graph.Graph) map[string]*composite.Composite {
	t.Helper()
	fennel, err := partitioner.FennelEdgeCut(g, 4, partitioner.FennelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	grid, err := partitioner.GridVertexCut(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	me2h, _, err := composite.ME2H(fennel, costmodel.ReferenceModels(), composite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mv2h, _, err := composite.MV2H(grid, costmodel.ReferenceModels(), composite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*composite.Composite{"me2h": me2h, "mv2h": mv2h}
}

// runRecord is everything one Run leaves that must repeat bit for bit:
// the Outcome, the Report but its wall time, and the harvested cost log.
type runRecord struct {
	value      float64
	checksum   uint64
	report     engine.Report
	comp, comm []costmodel.Sample
}

func recordRun(t *testing.T, c *engine.Cluster, algo costmodel.Algo, opts Options) runRecord {
	t.Helper()
	out, err := Run(c, algo, opts)
	if err != nil {
		t.Fatal(err)
	}
	rec := runRecord{value: out.Value, checksum: out.Checksum, report: *out.Report}
	rec.report.WallTime = 0
	rec.comp, rec.comm = c.HarvestSamples()
	return rec
}

func recordingCluster(p *partition.Partition, pl *pool.Pool) *engine.Cluster {
	c := engine.NewCluster(p).UsePool(pl)
	c.EnableCostRecording()
	return c
}

// TestWarmRunsEqualFresh: a warm cluster reuses the exchange topology
// and upper lists its first run built, and the sweeps keep their seeds
// off the heap; neither may change a bit of what a run produces. For
// every algorithm on both composite shapes and at 1, 4 and GOMAXPROCS
// pool workers, the first three runs on one cluster each equal a run on
// a fresh cluster: outcome, Report and harvested cost log.
func TestWarmRunsEqualFresh(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 700, AvgDeg: 6, Exponent: 2.1, Seed: 29})
	opts := Options{SSSPSource: 1, PRIterations: 4}
	for name, comp := range warmComposites(t, g) {
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			pl := pool.New(workers)
			for _, algo := range costmodel.Algos() {
				p := comp.Partition(comp.PartitionFor(algo))
				want := recordRun(t, recordingCluster(p, pl), algo, opts)
				warm := recordingCluster(p, pl)
				for run := 1; run <= 3; run++ {
					if got := recordRun(t, warm, algo, opts); !reflect.DeepEqual(got, want) {
						t.Errorf("%s/%v workers=%d: run %d on one cluster differs from a fresh cluster:\n got %+v\nwant %+v",
							name, algo, workers, run, got.report, want.report)
					}
				}
			}
			pl.Close()
		}
	}
}

// TestCNWarmThetaEqualsFresh: CN's needs are kept per θ, so one warm
// cluster run at θ = 0, 3, 0 must equal a fresh cluster at each step,
// and after the first run no run carves (sorts or merges) a list: the
// narrower θ needs a subset of the lists already built.
func TestCNWarmThetaEqualsFresh(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 700, AvgDeg: 6, Exponent: 2.1, Seed: 29})
	for name, comp := range warmComposites(t, g) {
		p := comp.Partition(comp.PartitionFor(costmodel.CN))
		warm := recordingCluster(p, pool.Serial())
		carved := 0
		for i, theta := range []int{0, 3, 0} {
			opts := Options{CNTheta: theta}
			want := recordRun(t, recordingCluster(p, pool.Serial()), costmodel.CN, opts)
			if got := recordRun(t, warm, costmodel.CN, opts); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: warm CN at θ=%d differs from a fresh cluster:\n got %+v\nwant %+v", name, theta, got.report, want.report)
			}
			switch n := exchangeCarves(warm); {
			case i == 0:
				carved = n
			case n != carved:
				t.Errorf("%s: warm CN run %d at θ=%d carved %d lists", name, i, theta, n-carved)
			}
		}
		if carved == 0 {
			t.Errorf("%s: the first CN run carved nothing; the check above is vacuous", name)
		}
	}
}

// TestWarmExchangeCarvesNothing: after a cluster's first CN or TC run,
// later runs sort and merge no list; they read the lists the first one
// carved.
func TestWarmExchangeCarvesNothing(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 700, AvgDeg: 6, Exponent: 2.1, Seed: 29})
	for name, comp := range warmComposites(t, g) {
		for _, algo := range []costmodel.Algo{costmodel.CN, costmodel.TC} {
			c := engine.NewCluster(comp.Partition(comp.PartitionFor(algo))).UsePool(pool.Serial())
			var carved int
			for run := 0; run < 3; run++ {
				if _, err := Run(c, algo, Options{}); err != nil {
					t.Fatal(err)
				}
				if n := exchangeCarves(c); run == 0 {
					carved = n
				} else if n != carved {
					t.Errorf("%s/%v: warm run %d carved %d lists", name, algo, run, n-carved)
				}
			}
			if carved == 0 {
				t.Errorf("%s/%v: the first run carved nothing; the check is vacuous", name, algo)
			}
		}
	}
}

// TestSSSPSeedsStayOffTheHeap: superstep 0 seeds every vertex, but only
// finite seeds enter the sweep, and those by a cursor, not the heap. A
// source with no out-arcs lowers no vertex anywhere, so no worker's
// heap ever holds an entry, while the run still matches the oracle.
func TestSSSPSeedsStayOffTheHeap(t *testing.T) {
	g := directedTestGraph()
	source := graph.VertexID(0)
	for g.OutDegree(source) > 0 || g.InDegree(source) == 0 {
		source++
	}
	p, err := partitioner.GridVertexCut(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	c := engine.NewCluster(p).UsePool(pool.Serial())
	opts := Options{SSSPSource: source}
	out, err := Run(c, costmodel.SSSP, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := SeqOutcome(g, costmodel.SSSP, opts); out.Value != want.Value || out.Checksum != want.Checksum {
		t.Fatalf("SSSP from %d: (%v, %d), oracle (%v, %d)", source, out.Value, out.Checksum, want.Value, want.Checksum)
	}
	for i, n := range sweepHeapCaps(c) {
		if n != 0 {
			t.Errorf("worker %d: SSSP from a sink pushed onto the sweep heap (capacity %d)", i, n)
		}
	}
}
