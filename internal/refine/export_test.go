package refine

import (
	"context"

	"adp/internal/costmodel"
	"adp/internal/partition"
	"adp/internal/partitioner"
)

// ForFamilyCtx is ForFamily under a context; see ParE2HCtx for the
// abort contract. Hybrid families return (nil, nil).
func ForFamilyCtx(ctx context.Context, fam partitioner.Family, p *partition.Partition, m costmodel.CostModel, cfg Config) (*Stats, error) {
	switch fam {
	case partitioner.EdgeCutFamily:
		return ParE2HCtx(ctx, p, m, cfg)
	case partitioner.VertexCutFamily:
		return ParV2HCtx(ctx, p, m, cfg)
	}
	return nil, nil
}
