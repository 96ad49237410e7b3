package partition

import (
	"adp/internal/graph"
	"adp/internal/pool"
)

// Metrics aggregates the structural quality measures of Section 2.
type Metrics struct {
	FV      float64 // vertex replication ratio fv = Σ|Vi| / |V| (non-dummy copies)
	FE      float64 // edge replication ratio fe = Σ|Ei| / |E|
	LambdaV float64 // vertex balance factor λv
	LambdaE float64 // edge balance factor λe
}

// NonDummyCount returns the number of computing (e-cut or v-cut)
// vertex copies in fragment i: the |Vi| used by fv and λv.
func (p *Partition) NonDummyCount(i int) int {
	count := 0
	p.frags[i].Vertices(func(v graph.VertexID, _ *Adj) {
		if s := p.Status(i, v); s == ECutNode || s == VCutNode {
			count++
		}
	})
	return count
}

// ComputeMetrics evaluates fv, fe, λv and λe for the partition. The
// per-fragment counts accumulate on the shared pool, one slot per
// fragment; the partition must not be mutated concurrently.
func (p *Partition) ComputeMetrics() Metrics {
	n := len(p.frags)
	vCounts := make([]float64, n)
	eCounts := make([]float64, n)
	pool.Default().RunChunks(n, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			vCounts[i] = float64(p.NonDummyCount(i))
			eCounts[i] = float64(p.frags[i].NumArcs())
		}
	})
	var vSum, eSum float64
	for i := range p.frags {
		vSum += vCounts[i]
		eSum += eCounts[i]
	}
	m := Metrics{}
	if p.g.NumVertices() > 0 {
		m.FV = vSum / float64(p.g.NumVertices())
	}
	if p.g.NumEdges() > 0 {
		m.FE = eSum / float64(p.g.NumEdges())
	}
	m.LambdaV = BalanceFactor(vCounts)
	m.LambdaE = BalanceFactor(eCounts)
	return m
}

// BalanceFactor returns the smallest λ with max(xs) ≤ (1+λ)·avg(xs),
// i.e. max/avg − 1, the paper's balance factor definition; the cost
// model's λA uses it too.
func BalanceFactor(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, max float64
	for _, x := range xs {
		sum += x
		if x > max {
			max = x
		}
	}
	if sum == 0 {
		return 0
	}
	avg := sum / float64(len(xs))
	return max/avg - 1
}

// StorageArcs returns Σ|Ei| over fragments.
func (p *Partition) StorageArcs() int {
	total := 0
	for _, f := range p.frags {
		total += f.NumArcs()
	}
	return total
}
