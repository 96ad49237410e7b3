package algorithms

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"adp/internal/costmodel"
	"adp/internal/engine"
	"adp/internal/gen"
	"adp/internal/partition"
	"adp/internal/partitioner"
	"adp/internal/pool"
	"adp/internal/refine"
)

// goldenLine renders an Outcome and every deterministic Report field
// exactly (floats as their bit patterns), so a change to any charged
// work unit, message or byte shows up as a string diff.
func goldenLine(out Outcome, c *engine.Cluster) string {
	bits := func(fs []float64) string {
		var b strings.Builder
		for i, f := range fs {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%x", math.Float64bits(f))
		}
		return b.String()
	}
	// The harvested training log: sample counts and total charged
	// units (integer-valued, so the sums are exact).
	comp, comm := c.HarvestSamples()
	var compT, commT float64
	for _, s := range comp {
		compT += s.T
	}
	for _, s := range comm {
		commT += s.T
	}
	r := out.Report
	return fmt.Sprintf("value=%x checksum=%d steps=%d work=[%s] msgs=%v bytes=%v critWork=%x critBytes=%x comp=%d/%v comm=%d/%v",
		math.Float64bits(out.Value), out.Checksum, r.Supersteps, bits(r.Work), r.MsgCount, r.MsgBytes,
		math.Float64bits(r.CriticalWork), math.Float64bits(r.CriticalBytes), len(comp), compT, len(comm), commT)
}

// goldenReports were recorded at the commit before the scan plan
// (494e32d) with the per-arc ResponsibleFor kernels: the plan-driven
// kernels must reproduce every field bit for bit.
var goldenReports = map[string]string{
	"e2h/CN":   "value=40d29ac000000000 checksum=11088512139215400572 steps=4 work=[4083200000000000,40b2ec0000000000,40e0544000000000,40a1940000000000] msgs=[76 205 294 127] bytes=[2536 7460 14180 3600] critWork=40e0544000000000 critBytes=40cbb20000000000 comp=428/41148 comm=306/5516",
	"e2h/PR":   "value=4042326082dd5ce5 checksum=0 steps=9 work=[40cc568000000000,40bda70000000000,40bc170000000000,40bab80000000000] msgs=[1008 1212 1264 1236] bytes=[16128 19392 20224 19776] critWork=40cc568000000000 critBytes=40d3c00000000000 comp=503/17552 comm=479/3604",
	"e2h/SSSP": "value=40a7700000000000 checksum=500 steps=6 work=[40b5730000000000,40b5c50000000000,40b7d90000000000,40b7d00000000000] msgs=[754 829 940 914] bytes=[12064 13264 15040 14624] critWork=40ba360000000000 critBytes=40cf680000000000 comp=503/4385 comm=464/989",
	"e2h/TC":   "value=40ab6c0000000000 checksum=0 steps=4 work=[40d5050000000000,40f1730000000000,40f39c5000000000,40f490a000000000] msgs=[43 138 169 172] bytes=[13408 7524 7196 5688] critWork=40f4b14000000000 critBytes=40ccc40000000000 comp=503/70571 comm=158/6910",
	"e2h/WCC":  "value=3ff0000000000000 checksum=12075212514034414598 steps=3 work=[40c4bb0000000000,40bdc00000000000,40bcea0000000000,40bc070000000000] msgs=[550 480 463 454] bytes=[8800 7680 7408 7264] critWork=40c4bb8000000000 critBytes=40c1500000000000 comp=503/8768 comm=473/973",
	"v2h/CN":   "value=40d29ac000000000 checksum=11088512139215400572 steps=4 work=[40cdf30000000000,40d1864000000000,40b1340000000000,40b7760000000000] msgs=[441 574 243 384] bytes=[13324 14800 8860 10332] critWork=40d194c000000000 critBytes=40cfca0000000000 comp=945/43689 comm=365/7487",
	"v2h/PR":   "value=4042326082dd5ce5 checksum=0 steps=9 work=[40b82d0000000000,40b7030000000000,40b6bd0000000000,40b8870000000000] msgs=[1212 1284 1232 1080] bytes=[19392 20544 19712 17280] critWork=40b8d50000000000 critBytes=40d4500000000000 comp=1085/17708 comm=379/2384",
	"v2h/SSSP": "value=40a7700000000000 checksum=500 steps=7 work=[40b05e0000000000,40aeca0000000000,40aca40000000000,40a80c0000000000] msgs=[348 726 629 392] bytes=[5568 11616 10064 6272] critWork=40b0d60000000000 critBytes=40c6d00000000000 comp=1050/4382 comm=379/557",
	"v2h/TC":   "value=40ab6c0000000000 checksum=0 steps=4 work=[40e7518000000000,40ea322000000000,40f4a1f000000000,40f1054000000000] msgs=[356 534 436 332] bytes=[13768 16360 15124 13024] critWork=40f4a1f000000000 critBytes=40d0890000000000 comp=1049/255066 comm=375/10141",
	"v2h/WCC":  "value=3ff0000000000000 checksum=12075212514034414598 steps=3 work=[40b3260000000000,40b2be0000000000,40b2310000000000,40b3060000000000] msgs=[299 350 306 260] bytes=[4784 5600 4896 4160] critWork=40b38a0000000000 critBytes=40b5e00000000000 comp=1095/8850 comm=379/601",
}

// TestGoldenReports pins Outcome + full Report of all five algorithms
// on a hybrid partition of each refiner family (e-cut, v-cut and dummy
// copies all present), each run twice on one cluster so the warm,
// buffer-reusing second run is held to the same values.
func TestGoldenReports(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 500, AvgDeg: 6, Exponent: 2.1, Seed: 91})
	opts := Options{CNTheta: 40, SSSPSource: 3, PRIterations: 4}
	families := []struct {
		name  string
		build func(a costmodel.Algo) (*partition.Partition, error)
	}{
		{"e2h", func(a costmodel.Algo) (*partition.Partition, error) {
			p, err := partitioner.FennelEdgeCut(g, 4, partitioner.FennelConfig{})
			if err == nil {
				refine.E2H(p, costmodel.Reference(a), refine.Config{})
			}
			return p, err
		}},
		{"v2h", func(a costmodel.Algo) (*partition.Partition, error) {
			p, err := partitioner.GridVertexCut(g, 4)
			if err == nil {
				refine.V2H(p, costmodel.Reference(a), refine.Config{})
			}
			return p, err
		}},
	}
	for _, fam := range families {
		for _, algo := range costmodel.Algos() {
			key := fam.name + "/" + algo.String()
			p, err := fam.build(algo)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			c := engine.NewCluster(p).UsePool(pool.Serial())
			c.EnableCostRecording()
			for run := 0; run < 2; run++ {
				out, err := Run(c, algo, opts)
				if err != nil {
					t.Fatalf("%s run %d: %v", key, run, err)
				}
				if got := goldenLine(out, c); got != goldenReports[key] {
					t.Errorf("%s run %d:\n got %q\nwant %q", key, run, got, goldenReports[key])
				}
			}
		}
	}
}
