package refine

// Compiled-form invariant: refiners mutate the partition through its
// mutators, which thaw the touched vertices into each fragment's
// index-addressed overlay and never write the compiled base (see
// DESIGN.md "Ownership rules: base + overlay"), so a refined partition
// is always safe to hand to engine.NewCluster — the cluster recompiles
// at construction.
// The inverse does not hold: a partition must not be refined while a
// live Cluster executes over it, since the cluster's responsibility
// bitsets are built against the compiled arc slots at construction
// time.

import (
	"context"

	"adp/internal/costmodel"
	"adp/internal/partition"
	"adp/internal/partitioner"
)

// ParE2H is the parallel (BSP-batched) E2H of Section 5.3.
func ParE2H(p *partition.Partition, m costmodel.CostModel, cfg Config) *Stats {
	cfg.Parallel = true
	return E2H(p, m, cfg)
}

// ParV2H is the parallel (BSP-batched) V2H of Section 5.3.
func ParV2H(p *partition.Partition, m costmodel.CostModel, cfg Config) *Stats {
	cfg.Parallel = true
	return V2H(p, m, cfg)
}

// ctxErr treats a nil context as never-cancelled, so the ctx-less
// entry points share the ctx-aware implementations.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// VMergeSweep runs the VMerge phase alone on tr's partition against an
// explicit budget, returning the number of v-cut nodes merged. The
// composite partitioner MV2H reuses it per target partition, on a
// freshly built tracker.
func VMergeSweep(tr *costmodel.Tracker, budget float64) int {
	stats := &Stats{}
	_ = vMerge(nil, tr, nil, budget, stats) // a nil ctx never cancels
	return stats.Merged
}

// MAssignOnly runs the MAssign phase alone on tr's partition, returning
// how many masters moved. The composite partitioners reuse it per
// target partition, on a freshly built tracker.
func MAssignOnly(tr *costmodel.Tracker) int {
	return mAssign(tr)
}

// ForFamily refines p in place with the refiner matching the family of
// the baseline that produced it: E2H for edge-cuts, V2H for
// vertex-cuts. Hybrid baselines are returned untouched with nil stats,
// mirroring the paper ("we do not extend Ginger and TopoX as they
// already produce hybrid partitions").
func ForFamily(fam partitioner.Family, p *partition.Partition, m costmodel.CostModel, cfg Config) *Stats {
	switch fam {
	case partitioner.EdgeCutFamily:
		return ParE2H(p, m, cfg)
	case partitioner.VertexCutFamily:
		return ParV2H(p, m, cfg)
	}
	return nil
}
