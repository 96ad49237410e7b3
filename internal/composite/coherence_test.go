package composite

import (
	"fmt"
	"math/rand"
	"testing"

	"adp/internal/graph"
	"adp/internal/partition"
	"adp/internal/partitioner"
)

// The composite's contract is coherence: however inserts and deletes
// interleave, all k bundled partitions describe the same edge set and
// the arc index stays exact. This property test drives a long seeded
// random interleaving — including deliberate no-op deletes and repeat
// inserts — and re-checks both invariants after every single step.
//
// The index under test is the sorted base plus overlay: every few
// steps the composite is cut with CloneCOW, which folds the overlays
// into new sorted arrays, so steps land on fresh bases, on overlays
// with tombstones and on both. A deep Clone taken at the start runs the
// same steps and is never cut (its whole index stays in its overlay);
// after every step the two must be in the same state and give the same
// Locate, StorageArcs and CoreArcs answers, and every cut must still
// answer what it answered when it was taken.

// arcSet collects the distinct arcs a partition stores (union over
// fragments, replicas deduplicated).
func arcSet(p *partition.Partition) map[uint64]bool {
	set := map[uint64]bool{}
	for i := 0; i < p.NumFragments(); i++ {
		p.Fragment(i).Vertices(func(v graph.VertexID, adj *partition.Adj) {
			for _, w := range adj.Out {
				set[uint64(v)<<32|uint64(w)] = true
			}
		})
	}
	return set
}

func TestCoherenceUnderRandomInterleavings(t *testing.T) {
	g := testGraph()
	p1, err := partitioner.HashEdgeCut(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	assign := make([]int, g.NumVertices())
	for v := range assign {
		assign[v] = (v + 2) % 3
	}
	p2, err := partition.FromVertexAssignment(g, assign, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(g, []*partition.Partition{p1, p2})
	if err != nil {
		t.Fatal(err)
	}

	oracle := c.Clone()
	type cutAnswer struct {
		cut    *Composite
		u, v   graph.VertexID
		locate [3]string // per fragment, at the time of the cut
	}
	locate := func(c *Composite, i int, u, v graph.VertexID) string {
		core, res, present := c.Locate(i, u, v)
		return fmt.Sprint(core, res, present)
	}
	var cuts []cutAnswer

	steps := 400
	if testing.Short() {
		steps = 120
	}
	rng := rand.New(rand.NewSource(97))
	live := arcSet(c.Partition(0))
	var liveList []uint64
	for k := range live {
		liveList = append(liveList, k)
	}
	nv := uint32(g.NumVertices())

	for step := 0; step < steps; step++ {
		var tu, tv graph.VertexID // the arc this step is about
		switch op := rng.Intn(10); {
		case op < 4: // insert a fresh edge
			u, v := rng.Uint32()%nv, rng.Uint32()%nv
			if u == v || live[uint64(u)<<32|uint64(v)] {
				step--
				continue
			}
			tu, tv = graph.VertexID(u), graph.VertexID(v)
			dest := []int{rng.Intn(c.N()), rng.Intn(c.N())}
			if err := c.InsertEdge(tu, tv, dest); err != nil {
				t.Fatalf("step %d: insert (%d,%d): %v", step, u, v, err)
			}
			if err := oracle.InsertEdge(tu, tv, dest); err != nil {
				t.Fatalf("step %d: oracle insert (%d,%d): %v", step, u, v, err)
			}
			live[uint64(u)<<32|uint64(v)] = true
			liveList = append(liveList, uint64(u)<<32|uint64(v))
		case op < 7: // delete a live edge
			if len(liveList) == 0 {
				step--
				continue
			}
			i := rng.Intn(len(liveList))
			k := liveList[i]
			liveList[i] = liveList[len(liveList)-1]
			liveList = liveList[:len(liveList)-1]
			delete(live, k)
			tu, tv = graph.VertexID(k>>32), graph.VertexID(uint32(k))
			if !c.DeleteEdge(tu, tv) || !oracle.DeleteEdge(tu, tv) {
				t.Fatalf("step %d: live edge (%d,%d) not found", step, k>>32, uint32(k))
			}
		case op < 8: // re-insert a live edge (must be a coherent no-op)
			if len(liveList) == 0 {
				step--
				continue
			}
			k := liveList[rng.Intn(len(liveList))]
			tu, tv = graph.VertexID(k>>32), graph.VertexID(uint32(k))
			dest := []int{rng.Intn(c.N()), rng.Intn(c.N())}
			if err := c.InsertEdge(tu, tv, dest); err != nil {
				t.Fatalf("step %d: repeat insert: %v", step, err)
			}
			if err := oracle.InsertEdge(tu, tv, dest); err != nil {
				t.Fatalf("step %d: oracle repeat insert: %v", step, err)
			}
		default: // delete an absent edge (must report not-found, change nothing)
			u, v := rng.Uint32()%nv, rng.Uint32()%nv
			if live[uint64(u)<<32|uint64(v)] {
				step--
				continue
			}
			tu, tv = graph.VertexID(u), graph.VertexID(v)
			if c.DeleteEdge(tu, tv) || oracle.DeleteEdge(tu, tv) {
				t.Fatalf("step %d: absent edge (%d,%d) reported deleted", step, u, v)
			}
		}

		if err := c.EqualState(oracle); err != nil {
			t.Fatalf("step %d: diverged from the never-cut oracle: %v", step, err)
		}
		if a, b := c.StorageArcs(), oracle.StorageArcs(); a != b {
			t.Fatalf("step %d: StorageArcs %d vs oracle %d", step, a, b)
		}
		for i := 0; i < c.N(); i++ {
			if a, b := c.CoreArcs(i), oracle.CoreArcs(i); a != b {
				t.Fatalf("step %d: CoreArcs(%d) %d vs oracle %d", step, i, a, b)
			}
			if a, b := locate(c, i, tu, tv), locate(oracle, i, tu, tv); a != b {
				t.Fatalf("step %d: Locate(%d,%d,%d) = %s, oracle says %s", step, i, tu, tv, a, b)
			}
		}
		if step%7 == 3 {
			ca := cutAnswer{cut: c.CloneCOW(), u: tu, v: tv}
			for i := range ca.locate {
				ca.locate[i] = locate(ca.cut, i, tu, tv)
			}
			cuts = append(cuts, ca)
		}
		// Later steps write overlays over, and fold new bases out of,
		// the bases the earlier cuts share.
		for _, old := range cuts {
			for i := range old.locate {
				if got := locate(old.cut, i, old.u, old.v); got != old.locate[i] {
					t.Fatalf("step %d: an earlier cut's Locate(%d,%d,%d) changed from %s to %s", step, i, old.u, old.v, old.locate[i], got)
				}
			}
		}

		if err := c.ValidateIndex(); err != nil {
			t.Fatalf("step %d: index invalid: %v", step, err)
		}
		ref := arcSet(c.Partition(0))
		if len(ref) != len(live) {
			t.Fatalf("step %d: partition 0 holds %d arcs, live set has %d", step, len(ref), len(live))
		}
		for k := range ref {
			if !live[k] {
				t.Fatalf("step %d: partition 0 holds untracked arc (%d,%d)", step, k>>32, uint32(k))
			}
		}
		for j := 1; j < c.K(); j++ {
			other := arcSet(c.Partition(j))
			if len(other) != len(ref) {
				t.Fatalf("step %d: partition %d holds %d arcs, partition 0 holds %d", step, j, len(other), len(ref))
			}
			for k := range other {
				if !ref[k] {
					t.Fatalf("step %d: partition %d holds arc (%d,%d) that partition 0 lacks", step, j, k>>32, uint32(k))
				}
			}
		}
	}
}
