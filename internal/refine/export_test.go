package refine

import (
	"context"

	"adp/internal/costmodel"
	"adp/internal/partition"
	"adp/internal/partitioner"
)

// ForFamilyCtx is ForFamily under a context, on the parallel refiners;
// see E2HCtx for the abort contract. Hybrid families return (nil, nil).
func ForFamilyCtx(ctx context.Context, fam partitioner.Family, p *partition.Partition, m costmodel.CostModel, cfg Config) (*Stats, error) {
	cfg.Parallel = true
	switch fam {
	case partitioner.EdgeCutFamily:
		return E2HCtx(ctx, p, m, cfg)
	case partitioner.VertexCutFamily:
		return V2HCtx(ctx, p, m, cfg)
	}
	return nil, nil
}
