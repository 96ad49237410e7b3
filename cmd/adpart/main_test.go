package main

import (
	"os"
	"path/filepath"
	"testing"

	"adp/internal/composite"
	"adp/internal/costmodel"
	"adp/internal/graph"
	"adp/internal/partition"
	"adp/internal/partitioner"
	"adp/internal/store"
	"adp/internal/testutil"
)

func TestParseAlgo(t *testing.T) {
	for _, c := range []struct {
		in   string
		want costmodel.Algo
		ok   bool
	}{
		{"CN", costmodel.CN, true},
		{"cn", costmodel.CN, true},
		{"sssp", costmodel.SSSP, true},
		{"nope", 0, false},
	} {
		got, err := parseAlgo(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("parseAlgo(%q) = %v, %v", c.in, got, err)
		}
		if !c.ok && err == nil {
			t.Errorf("parseAlgo(%q) accepted", c.in)
		}
	}
}

func TestLoadGraphNamed(t *testing.T) {
	for _, name := range []string{"social", "twitter", "web", "road"} {
		g, _, _, err := loadGraph(name, false, false, false, 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.NumVertices() == 0 {
			t.Fatalf("%s empty", name)
		}
	}
	// Symmetrisation flag.
	g, _, _, err := loadGraph("social", true, false, false, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Undirected() {
		t.Fatal("undirected flag ignored")
	}
}

func TestLoadGraphFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "edges.txt")
	if err := os.WriteFile(path, []byte("# vertices 4 directed\n0 1\n1 2\n2 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, _, _, err := loadGraph(path, false, false, false, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 || g.NumEdges() != 3 {
		t.Fatalf("loaded %v", g)
	}
	if _, _, _, err := loadGraph(filepath.Join(dir, "missing.txt"), false, false, false, 4); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestLoadUpdates(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "stream.txt")
	if err := os.WriteFile(path, []byte("# demo\n+ 0 5\n- 1 2\ncommit\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	muts, err := loadUpdates(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(muts) != 3 || muts[0].Kind != store.MutInsert || muts[2].Kind != store.MutCommit {
		t.Fatalf("parsed %v", muts)
	}
	if _, err := loadUpdates(filepath.Join(dir, "missing.txt")); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(bad, []byte("frobnicate 1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadUpdates(bad); err == nil {
		t.Fatal("bad grammar accepted")
	}
}

// testBatchComposite bundles two partitions of the small social graph.
func testBatchComposite(t *testing.T) *composite.Composite {
	t.Helper()
	g, _, _, err := loadGraph("social", false, false, false, 3)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := partitioner.HashEdgeCut(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	assign := make([]int, g.NumVertices())
	for v := range assign {
		assign[v] = (v + 1) % 3
	}
	p2, err := partition.FromVertexAssignment(g, assign, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := composite.New(g, []*partition.Partition{p1, p2})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestApplyCompositeUpdates(t *testing.T) {
	c := testBatchComposite(t)
	muts := []store.Mutation{
		{Kind: store.MutInsert, U: 0, V: 7, Dest: []int{1, 2}},
		{Kind: store.MutInsert, U: 0, V: 9}, // nil dest: locality routed
		{Kind: store.MutCommit},
		{Kind: store.MutDelete, U: 0, V: 7},
	}
	ins, del, err := store.Fold(c, muts)
	if err != nil {
		t.Fatal(err)
	}
	if ins != 2 || del != 1 {
		t.Fatalf("applied +%d -%d, want +2 -1", ins, del)
	}
	if err := c.ValidateIndex(); err != nil {
		t.Fatal(err)
	}
	holds := func(u, v graph.VertexID) bool {
		for _, p := range c.Partitions() {
			for i := 0; i < p.NumFragments(); i++ {
				if p.Fragment(i).HasArc(u, v) {
					return true
				}
			}
		}
		return false
	}
	if holds(0, 7) {
		t.Fatal("deleted edge still present")
	}
	if !holds(0, 9) {
		t.Fatal("routed insert missing")
	}
	// The fold refuses what the store refuses: a vertex the graph does
	// not have, a destination vector of the wrong shape.
	beyond := graph.VertexID(c.Partition(0).Graph().NumVertices())
	for _, bad := range []store.Mutation{
		{Kind: store.MutInsert, U: 0, V: beyond},
		{Kind: store.MutInsert, U: 0, V: 8, Dest: []int{1}},
		{Kind: store.MutInsert, U: 0, V: 8, Dest: []int{1, 3}},
	} {
		if _, _, err := store.Fold(c, []store.Mutation{bad}); err == nil {
			t.Fatalf("fold accepted %v", bad)
		}
	}
	if err := c.ValidateIndex(); err != nil {
		t.Fatalf("refused mutations disturbed the index: %v", err)
	}
}

func TestRunFsckEndToEnd(t *testing.T) {
	c := testBatchComposite(t)
	dir := filepath.Join(t.TempDir(), "state")
	s, err := store.Create(dir, c, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	muts := []store.Mutation{
		{Kind: store.MutInsert, U: 0, V: 7, Dest: []int{1, 2}},
		{Kind: store.MutCommit},
		{Kind: store.MutDelete, U: 0, V: 7},
		{Kind: store.MutCommit},
	}
	if _, _, err := s.Apply(muts); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := runFsck(dir, false, "", false, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy() {
		t.Fatal("clean store reported damaged")
	}

	// Chop the log mid-frame: shallow fsck must flag it, repair must
	// truncate it, and the store must reopen cleanly afterwards.
	var walPath string
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".log" {
			walPath = filepath.Join(dir, e.Name())
		}
	}
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err = runFsck(dir, false, "", false, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Healthy() {
		t.Fatal("torn log reported healthy")
	}
	if _, err := runFsck(dir, true, "", false, false); err != nil {
		t.Fatal(err)
	}
	rep, err = runFsck(dir, false, "social", false, true) // deep re-check
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy() {
		t.Fatal("store still damaged after repair")
	}
}

// TestProfileWrittenOnFailure: a run that fails after profiling started
// must still stop the profile, or -cpuprofile leaves an unusable file.
func TestProfileWrittenOnFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.prof")
	if code := run([]string{"-cpuprofile", path, "-base", "no-such-partitioner"}); code != 1 {
		t.Fatalf("exit code %d for an unknown -base, want 1", code)
	}
	testutil.CheckCPUProfile(t, path)
}

// TestNegativeWorkersRejected: -workers below zero is a flag error, not
// a silent fall-back to GOMAXPROCS.
func TestNegativeWorkersRejected(t *testing.T) {
	if code := run([]string{"-workers", "-1"}); code != 2 {
		t.Fatalf("exit code %d for -workers -1, want 2", code)
	}
}
