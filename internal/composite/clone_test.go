package composite

import (
	"testing"

	"adp/internal/graph"
	"adp/internal/partition"
	"adp/internal/partitioner"
)

func buildTwoPartComposite(t *testing.T) *Composite {
	t.Helper()
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
	return c
}

// TestCloneIsDeepAndEqual: a clone is bitwise-equal state over the
// same graph, and mutating either side never leaks into the other —
// the isolation the serving plane's epoch snapshots rest on.
func TestCloneIsDeepAndEqual(t *testing.T) {
	c := buildTwoPartComposite(t)
	snap := c.Clone()
	if snap.Partition(0).Graph() != c.Partition(0).Graph() {
		t.Fatal("clone does not share the immutable graph")
	}
	if err := c.EqualState(snap); err != nil {
		t.Fatalf("fresh clone diverges: %v", err)
	}
	if err := snap.ValidateIndex(); err != nil {
		t.Fatalf("clone index invalid: %v", err)
	}

	// Mutate the original: insert a fresh edge and delete a live one.
	g := c.Partition(0).Graph()
	nv := graph.VertexID(g.NumVertices())
	if err := c.InsertEdge(nv-1, nv-2, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	var du, dv graph.VertexID
	found := false
	g.Edges(func(s, d graph.VertexID) bool {
		du, dv, found = s, d, true
		return false
	})
	if !found {
		t.Fatal("test graph has no edges")
	}
	if !c.DeleteEdge(du, dv) {
		t.Fatalf("edge (%d,%d) not deletable", du, dv)
	}

	// The clone must still equal a second pristine build.
	pristine := buildTwoPartComposite(t)
	if err := snap.EqualState(pristine); err != nil {
		t.Fatalf("clone changed when the original was mutated: %v", err)
	}
	if err := c.EqualState(pristine); err == nil {
		t.Fatal("original should have diverged from pristine after mutation")
	}
	// And mutating the clone must not touch the (already mutated)
	// original's state.
	before := c.StorageArcs()
	if err := snap.InsertEdge(nv-3, nv-4, []int{1, 0}); err != nil {
		t.Fatal(err)
	}
	if c.StorageArcs() != before {
		t.Fatal("mutating the clone changed the original's storage")
	}
	if err := snap.ValidateIndex(); err != nil {
		t.Fatalf("mutated clone index invalid: %v", err)
	}
}

// TestShareStatsCountsOwnedIndexBases: after a wave only the index
// bases it folded are owned by the new cut, each charged 12 bytes per
// entry; everything else is the previous cut's very object.
func TestShareStatsCountsOwnedIndexBases(t *testing.T) {
	c := buildTwoPartComposite(t)
	first := c.CloneCOW()
	if st := first.ShareStats(c); st.OwnedIndexMaps != 0 || st.OwnedFragments != 0 || st.OwnedBytes != 0 {
		t.Fatalf("fresh cut owns %+v", st)
	}

	nv := graph.VertexID(c.Partition(0).Graph().NumVertices())
	if err := c.InsertEdge(nv-1, nv-2, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	second := c.CloneCOW()
	st := second.ShareStats(first)
	if st.OwnedIndexMaps != 2 || st.SharedIndexMaps != 1 {
		t.Fatalf("one insert routed to fragments 0 and 1 left %d owned / %d shared index bases", st.OwnedIndexMaps, st.SharedIndexMaps)
	}
	want := int64(len(second.index[0].keys)+len(second.index[1].keys)) * 12
	for j, p := range second.Partitions() {
		_, _, b := p.ShareStats(first.Partition(j))
		want += b
	}
	if st.OwnedBytes != want {
		t.Fatalf("owned bytes %d, want %d", st.OwnedBytes, want)
	}
	if second.index[2] != first.index[2] || len(second.over[0]) != 0 {
		t.Fatal("untouched index base must be shared by pointer and a cut must carry no overlay")
	}
}
