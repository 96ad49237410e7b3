// Streaming updates: keep a composite partition coherent under edge
// deletions and insertions using the Section-6.1 edge index — the
// scenario that motivates composite partitions over k separate copies
// ("the coherence problem when G is updated").
//
//	go run ./examples/streamingupdates
package main

import (
	"fmt"
	"log"
	"math/rand"

	"adp/internal/composite"
	"adp/internal/costmodel"
	"adp/internal/gen"
	"adp/internal/graph"
	"adp/internal/partitioner"
)

func main() {
	g := gen.SocialSmall()
	base, err := partitioner.FennelEdgeCut(g, 4, partitioner.FennelConfig{})
	if err != nil {
		log.Fatal(err)
	}
	models := []costmodel.CostModel{
		costmodel.Reference(costmodel.PR),
		costmodel.Reference(costmodel.WCC),
		costmodel.Reference(costmodel.SSSP),
	}
	comp, _, err := composite.ME2H(base, models, composite.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("composite of %d partitions over %v, fc = %.2f\n", comp.K(), g, comp.FC())

	// Delete 100 random existing edges coherently: the index locates
	// every copy across cores and residuals in one lookup each.
	rng := rand.New(rand.NewSource(7))
	edges := g.EdgeList()
	deleted := 0
	for _, idx := range rng.Perm(len(edges))[:100] {
		e := edges[idx]
		if comp.DeleteEdge(e.Src, e.Dst) {
			deleted++
		}
	}
	fmt.Printf("deleted %d edges from all %d partitions coherently\n", deleted, comp.K())

	// Insert edges: aligned destinations land in the shared core and
	// are stored once; divergent destinations go to residuals.
	core := 0
	for i := 0; i < 100; i++ {
		u := graph.VertexID(rng.Intn(g.NumVertices()))
		v := graph.VertexID(rng.Intn(g.NumVertices()))
		if u == v {
			continue
		}
		dest := make([]int, comp.K())
		frag := rng.Intn(comp.N())
		aligned := rng.Intn(2) == 0
		for j := range dest {
			if aligned {
				dest[j] = frag
			} else {
				dest[j] = (frag + j) % comp.N()
			}
		}
		if err := comp.InsertEdge(u, v, dest); err != nil {
			log.Fatal(err)
		}
		if aligned {
			core++
		}
	}
	fmt.Printf("inserted 100 edges (%d aligned -> stored once in a core)\n", core)

	if err := comp.ValidateIndex(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("bundled partitions coherent after updates ✓")
}
