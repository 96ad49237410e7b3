// Package gen provides deterministic synthetic graph generators used
// throughout the reproduction: power-law social-network stand-ins for
// the paper's liveJournal/Twitter/UKWeb datasets, Erdős–Rényi and RMAT
// graphs for cost-model training diversity, 2-D grids as road-network
// stand-ins (the paper's traffic dataset), and clique collections for
// the Theorem-1 NP-reduction instances.
//
// All generators are pure functions of their parameters and seed.
package gen

import (
	"math"
	"math/rand"

	"adp/internal/graph"
)

// PowerLawConfig parameterises a Chung–Lu style power-law generator.
type PowerLawConfig struct {
	N        int     // number of vertices
	AvgDeg   float64 // target average out-degree
	Exponent float64 // power-law exponent (2.0–3.0 typical; lower = heavier skew)
	Directed bool    // if false, the result is symmetrised
	Seed     int64
}

// PowerLaw generates a graph whose degree sequence follows a power
// law: vertex i receives weight proportional to (i+1)^(-1/(Exponent-1))
// and edges are sampled with probability proportional to the product
// of endpoint weights (Chung–Lu model). The expected number of arcs is
// N*AvgDeg.
func PowerLaw(cfg PowerLawConfig) *graph.Graph {
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.N
	weights := make([]float64, n)
	var total float64
	alpha := 1.0 / (cfg.Exponent - 1.0)
	for i := 0; i < n; i++ {
		weights[i] = math.Pow(float64(i+1), -alpha)
		total += weights[i]
	}
	// Cumulative distribution for endpoint sampling.
	cum := make([]float64, n)
	acc := 0.0
	for i, w := range weights {
		acc += w / total
		cum[i] = acc
	}
	sample := func() graph.VertexID {
		x := rng.Float64()
		lo, hi := 0, n-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return graph.VertexID(lo)
	}
	m := int(float64(n) * cfg.AvgDeg)
	var b *graph.Builder
	if cfg.Directed {
		b = graph.NewBuilder(n)
	} else {
		b = graph.NewUndirectedBuilder(n)
	}
	for i := 0; i < m; i++ {
		u, v := sample(), sample()
		if u == v {
			continue
		}
		b.AddEdge(u, v)
	}
	// Guarantee no isolated vertices: attach stragglers to a sampled
	// hub so WCC/SSSP runs touch the whole graph.
	g0 := b.MustBuild()
	for v := 0; v < n; v++ {
		if g0.OutDegree(graph.VertexID(v)) == 0 && g0.InDegree(graph.VertexID(v)) == 0 {
			b.AddEdge(graph.VertexID(v), sample())
		}
	}
	return b.MustBuild()
}

// ErdosRenyi generates a uniform random directed graph with
// approximately n*avgDeg arcs.
func ErdosRenyi(n int, avgDeg float64, directed bool, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	var b *graph.Builder
	if directed {
		b = graph.NewBuilder(n)
	} else {
		b = graph.NewUndirectedBuilder(n)
	}
	m := int(float64(n) * avgDeg)
	for i := 0; i < m; i++ {
		b.AddEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)))
	}
	return b.MustBuild()
}

// Grid2D generates a rows×cols undirected grid: the road-network
// stand-in with high diameter and uniform low degree.
func Grid2D(rows, cols int) *graph.Graph {
	b := graph.NewUndirectedBuilder(rows * cols)
	id := func(r, c int) graph.VertexID { return graph.VertexID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return b.MustBuild()
}

// RMATConfig parameterises a recursive-matrix generator.
type RMATConfig struct {
	Scale    int // 2^Scale vertices
	AvgDeg   float64
	A, B, C  float64 // quadrant probabilities; D = 1-A-B-C
	Directed bool
	Seed     int64
}

// RMAT generates a Kronecker-style graph; with the classic
// (0.57,0.19,0.19) parameters it produces community structure and a
// skewed degree distribution similar to web crawls.
func RMAT(cfg RMATConfig) *graph.Graph {
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := 1 << cfg.Scale
	m := int(float64(n) * cfg.AvgDeg)
	var b *graph.Builder
	if cfg.Directed {
		b = graph.NewBuilder(n)
	} else {
		b = graph.NewUndirectedBuilder(n)
	}
	for i := 0; i < m; i++ {
		u, v := 0, 0
		for bit := 0; bit < cfg.Scale; bit++ {
			r := rng.Float64()
			switch {
			case r < cfg.A:
				// top-left: nothing set
			case r < cfg.A+cfg.B:
				v |= 1 << bit
			case r < cfg.A+cfg.B+cfg.C:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		if u == v {
			continue
		}
		b.AddEdge(graph.VertexID(u), graph.VertexID(v))
	}
	return b.MustBuild()
}
