package gen

import (
	"os"
	"strings"

	"adp/internal/graph"
)

// The paper evaluates on liveJournal (4.8M/68M), Twitter (42M/1.5B),
// UKWeb (106M/3.7B) and a US road network. Those datasets are
// proprietary-scale downloads; this reproduction substitutes seeded
// synthetic stand-ins roughly 1000× smaller that preserve the
// properties the experiments depend on: degree-distribution skew
// (Twitter ≫ liveJournal), community structure (UKWeb) and high
// diameter with uniform degree (traffic). See DESIGN.md.

// SocialSmall is the liveJournal stand-in: a moderately skewed
// power-law social graph.
func SocialSmall() *graph.Graph {
	return PowerLaw(PowerLawConfig{N: 6000, AvgDeg: 9, Exponent: 2.4, Directed: true, Seed: 41})
}

// TwitterLike is the Twitter stand-in: a heavily skewed power-law
// graph whose hubs dominate CN/TC workloads.
func TwitterLike() *graph.Graph {
	return PowerLaw(PowerLawConfig{N: 10000, AvgDeg: 12, Exponent: 2.05, Directed: true, Seed: 42})
}

// WebLike is the UKWeb stand-in: an RMAT graph with community
// structure and skew.
func WebLike() *graph.Graph {
	return RMAT(RMATConfig{Scale: 13, AvgDeg: 10, A: 0.57, B: 0.19, C: 0.19, Directed: true, Seed: 43})
}

// RoadLike is the traffic stand-in: a high-diameter 2-D grid.
func RoadLike() *graph.Graph {
	return Grid2D(70, 70)
}

// named maps the stand-ins' command-line names to their generators.
var named = map[string]func() *graph.Graph{
	"social": SocialSmall, "twitter": TwitterLike, "web": WebLike, "road": RoadLike,
}

// IsNamed reports whether name (any case) is a stand-in's name rather
// than an edge-list path.
func IsNamed(name string) bool {
	_, ok := named[strings.ToLower(name)]
	return ok
}

// Load returns the stand-in called name (social, twitter, web or road,
// any case) or, for any other name, the graph in the edge-list file at
// that path. symmetric symmetrises a directed result.
func Load(name string, symmetric bool) (*graph.Graph, error) {
	var g *graph.Graph
	if mk, ok := named[strings.ToLower(name)]; ok {
		g = mk()
	} else {
		f, err := os.Open(name)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if g, err = graph.ReadEdgeList(f); err != nil {
			return nil, err
		}
	}
	if symmetric && !g.Undirected() {
		g = graph.Symmetrize(g)
	}
	return g, nil
}

// Scaled returns a family of synthetic graphs for the Exp-5
// scalability sweep: factor f yields a power-law graph with f×|V| and
// f×|E| of the base size, mirroring the paper's |G| to 5|G| sweep.
func Scaled(factor int) *graph.Graph {
	return PowerLaw(PowerLawConfig{
		N:        3000 * factor,
		AvgDeg:   10,
		Exponent: 2.2,
		Directed: true,
		Seed:     100 + int64(factor),
	})
}

// TrainingGraphs returns the 10 diverse graphs the cost-model training
// harness runs algorithms on (Section 4: "we impose no restrictions on
// either graphs used in the training or how the graphs are
// partitioned").
func TrainingGraphs() []*graph.Graph {
	return []*graph.Graph{
		PowerLaw(PowerLawConfig{N: 3000, AvgDeg: 8, Exponent: 2.1, Directed: true, Seed: 1}),
		PowerLaw(PowerLawConfig{N: 5000, AvgDeg: 12, Exponent: 2.5, Directed: true, Seed: 2}),
		PowerLaw(PowerLawConfig{N: 4000, AvgDeg: 10, Exponent: 1.9, Directed: true, Seed: 3}),
		ErdosRenyi(4000, 10, true, 4),
		ErdosRenyi(2500, 6, true, 5),
		RMAT(RMATConfig{Scale: 12, AvgDeg: 10, A: 0.57, B: 0.19, C: 0.19, Directed: true, Seed: 6}),
		RMAT(RMATConfig{Scale: 11, AvgDeg: 14, A: 0.45, B: 0.25, C: 0.15, Directed: true, Seed: 7}),
		Grid2D(50, 60),
		PowerLaw(PowerLawConfig{N: 6000, AvgDeg: 16, Exponent: 2.2, Directed: true, Seed: 8}),
		ErdosRenyi(3500, 14, true, 9),
	}
}
