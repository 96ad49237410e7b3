package partitioner

import (
	"adp/internal/graph"
	"adp/internal/partition"
)

// Family classifies a baseline partitioner by the cut it produces.
type Family int

const (
	// EdgeCutFamily partitioners assign vertices (refined by E2H).
	EdgeCutFamily Family = iota
	// VertexCutFamily partitioners assign edges (refined by V2H).
	VertexCutFamily
	// HybridFamily partitioners already cut both; the paper compares
	// against them but does not refine them.
	HybridFamily
)

func (f Family) String() string {
	switch f {
	case EdgeCutFamily:
		return "edge-cut"
	case VertexCutFamily:
		return "vertex-cut"
	case HybridFamily:
		return "hybrid"
	}
	return "?"
}

// Spec names a baseline partitioner; the experiment drivers iterate
// these the way the paper's tables do.
type Spec struct {
	Name   string
	Family Family
	Run    func(g *graph.Graph, n int) (*partition.Partition, error)
}

// Baselines returns the paper's comparison set: xtraPuLP and Fennel
// (edge-cut), Grid and NE (vertex-cut), Ginger and TopoX (hybrid).
// Our xtraPuLP stand-in is the label-propagation partitioner; see
// DESIGN.md for the substitution table.
func Baselines() []Spec {
	return []Spec{
		{Name: "xtraPuLP", Family: EdgeCutFamily, Run: LabelPropEdgeCut},
		{Name: "Fennel", Family: EdgeCutFamily, Run: func(g *graph.Graph, n int) (*partition.Partition, error) {
			return FennelEdgeCut(g, n, FennelConfig{})
		}},
		{Name: "Grid", Family: VertexCutFamily, Run: GridVertexCut},
		{Name: "NE", Family: VertexCutFamily, Run: NEVertexCut},
		{Name: "Ginger", Family: HybridFamily, Run: func(g *graph.Graph, n int) (*partition.Partition, error) {
			return GingerHybrid(g, n, GingerConfig{})
		}},
		{Name: "TopoX", Family: HybridFamily, Run: func(g *graph.Graph, n int) (*partition.Partition, error) {
			return TopoXHybrid(g, n, TopoXConfig{})
		}},
	}
}

// Extras lists the partitioners beyond the paper's comparison set:
// only the locality-blind hash edge-cut. ByName finds it, so the CLI
// and refiners can run it, but the reproduced tables leave it out to
// stay aligned with the paper.
func Extras() []Spec {
	return []Spec{
		{Name: "Hash", Family: EdgeCutFamily, Run: HashEdgeCut},
	}
}

// ByName returns the named partitioner spec, searching the paper's
// baselines first and the extras second.
func ByName(name string) (Spec, bool) {
	for _, s := range Baselines() {
		if s.Name == name {
			return s, true
		}
	}
	for _, s := range Extras() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}
