package bench

import (
	"fmt"
	"time"

	"adp/internal/composite"
	"adp/internal/costmodel"
	"adp/internal/partition"
	"adp/internal/partitioner"
	"adp/internal/pool"
	"adp/internal/refine"
)

// batchAlgos is the fixed mixed workload of Exp-2/4/5:
// {CN, TC, WCC, PR, SSSP}.
var batchAlgos = []costmodel.Algo{costmodel.CN, costmodel.TC, costmodel.WCC, costmodel.PR, costmodel.SSSP}

// batchGraphName is the dataset the mixed-workload experiments run on:
// the symmetrised Twitter stand-in, so TC can share the partition with
// the directed algorithms exactly as the paper runs its batch on one
// graph.
const batchGraphName = DSTwitter + "-u"

const batchN = 4

// compositeFor builds (and caches) the composite partition for one
// baseline, plus the baseline itself and the build wall time.
type compositeResult struct {
	comp  *composite.Composite
	base  *partition.Partition
	build time.Duration
}

var compositeCache = map[string]*compositeResult{}

func compositeFor(baseName string) (*compositeResult, error) {
	if r, ok := compositeCache[baseName]; ok {
		return r, nil
	}
	spec, ok := partitioner.ByName(baseName)
	if !ok {
		return nil, fmt.Errorf("bench: unknown baseline %q", baseName)
	}
	base, err := basePartition(batchGraphName, baseName, batchN)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	comp, _, err := composite.ForFamily(spec.Family, base, costmodel.ReferenceModels(), composite.Options{})
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", baseName, err)
	}
	r := &compositeResult{comp: comp, base: base, build: time.Since(start)}
	compositeCache[baseName] = r
	return r, nil
}

// Table4 reproduces Table 4 / Fig 10(a): the simulated runtime of each
// algorithm in the batch over the composite M-partitions against the
// initial baseline partitions, with the speedup ratio X, plus the
// batch totals (row B) and the total over dedicated per-algorithm
// ParHP refinements for the Fig-10(a) comparison.
func Table4() (*Table, error) {
	opts := defaultOpts(DSTwitter)
	bases := []string{"xtraPuLP", "Fennel", "Grid", "NE"}
	t := &Table{
		ID:     "table4",
		Title:  fmt.Sprintf("Batch runtime over composite partitions (Twitter*, n=%d, work units)", batchN),
		Header: []string{"app"},
	}
	for _, b := range bases {
		t.Header = append(t.Header, "M"+b, b, "X")
	}
	// Gather per-algorithm costs.
	type col struct {
		mCost, baseCost []float64 // per algorithm
		parHPTotal      float64
		mTotal, baseTot float64
	}
	cols := map[string]*col{}
	for _, bName := range bases {
		r, err := compositeFor(bName)
		if err != nil {
			return nil, err
		}
		c := &col{}
		spec, _ := partitioner.ByName(bName)
		// One pool item per algorithm in the batch: each simulates the
		// composite, baseline and dedicated-refinement runs for its
		// own slot.
		type algoCosts struct {
			m, base, ded float64
			err          error
		}
		runs := pool.Map(pool.Default(), len(batchAlgos), func(j int) algoCosts {
			algo := batchAlgos[j]
			mc, err := runCost(r.comp.Partition(j), algo, opts)
			if err != nil {
				return algoCosts{err: fmt.Errorf("M%s/%v: %w", bName, algo, err)}
			}
			bc, err := runCost(r.base, algo, opts)
			if err != nil {
				return algoCosts{err: fmt.Errorf("%s/%v: %w", bName, algo, err)}
			}
			// Dedicated ParHP refinement for the Fig-10a comparison.
			ded := r.base.Clone()
			refine.ForFamily(spec.Family, ded, costmodel.Reference(algo), refine.Config{})
			dc, err := runCost(ded, algo, opts)
			if err != nil {
				return algoCosts{err: err}
			}
			return algoCosts{m: mc, base: bc, ded: dc}
		})
		for _, ac := range runs {
			if ac.err != nil {
				return nil, ac.err
			}
			c.mCost = append(c.mCost, ac.m)
			c.baseCost = append(c.baseCost, ac.base)
			c.mTotal += ac.m
			c.baseTot += ac.base
			c.parHPTotal += ac.ded
		}
		cols[bName] = c
	}
	for j, algo := range batchAlgos {
		cells := []string{algo.String()}
		values := []float64{0}
		for _, bName := range bases {
			c := cols[bName]
			x := c.baseCost[j] / c.mCost[j]
			cells = append(cells, fmtF(c.mCost[j]), fmtF(c.baseCost[j]), fmt.Sprintf("%.1f", x))
			values = append(values, c.mCost[j], c.baseCost[j], x)
		}
		t.addRow(cells, values)
	}
	// Batch totals.
	cells := []string{"B"}
	values := []float64{0}
	for _, bName := range bases {
		c := cols[bName]
		x := c.baseTot / c.mTotal
		cells = append(cells, fmtF(c.mTotal), fmtF(c.baseTot), fmt.Sprintf("%.1f", x))
		values = append(values, c.mTotal, c.baseTot, x)
	}
	t.addRow(cells, values)
	// Fig 10(a): composite vs dedicated refinement totals.
	for _, bName := range bases {
		c := cols[bName]
		gap := (c.mTotal - c.parHPTotal) / c.parHPTotal * 100
		t.Notes = append(t.Notes, fmt.Sprintf(
			"%s: batch over ParMHP %.4g vs ParHP %.4g work units (composite overhead %+.1f%%; paper reports at most +8.2%%)",
			bName, c.mTotal, c.parHPTotal, gap))
	}
	return t, nil
}
