package store

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"adp/internal/algorithms"
	"adp/internal/composite"
	"adp/internal/costmodel"
	"adp/internal/engine"
	"adp/internal/fault"
	"adp/internal/gen"
	"adp/internal/graph"
	"adp/internal/partition"
	"adp/internal/partitioner"
	"adp/internal/pool"
)

// testComposite builds a small deterministic 2-partition composite:
// a hashed edge-cut bundled with a shifted vertex assignment, so cores
// and residuals are both non-trivial.
func testComposite(t testing.TB) (*graph.Graph, *composite.Composite) {
	t.Helper()
	g := gen.PowerLaw(gen.PowerLawConfig{N: 300, AvgDeg: 5, Exponent: 2.1, Directed: true, Seed: 41})
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
	return g, c
}

// edgeSet snapshots the live edges of a composite's first partition
// (all partitions agree on the edge set by coherence).
func edgeSet(c *composite.Composite) map[uint64]bool {
	set := map[uint64]bool{}
	p := c.Partition(0)
	for i := 0; i < p.NumFragments(); i++ {
		p.Fragment(i).Vertices(func(v graph.VertexID, adj *partition.Adj) {
			for _, w := range adj.Out {
				set[uint64(v)<<32|uint64(w)] = true
			}
		})
	}
	return set
}

// genMutations produces n seeded insert/delete mutations with explicit
// destination vectors, each guaranteed to change state (inserts pick
// absent edges, deletes pick live ones), mirroring the live set as it
// evolves.
func genMutations(t testing.TB, g *graph.Graph, c *composite.Composite, n int, seed int64) []Mutation {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	live := edgeSet(c)
	var liveList []uint64
	for k := range live {
		liveList = append(liveList, k)
	}
	// Deterministic order for the seeded picks.
	for i := 1; i < len(liveList); i++ {
		for j := i; j > 0 && liveList[j] < liveList[j-1]; j-- {
			liveList[j], liveList[j-1] = liveList[j-1], liveList[j]
		}
	}
	nv := uint32(g.NumVertices())
	muts := make([]Mutation, 0, n)
	for len(muts) < n {
		if rng.Intn(3) == 0 && len(liveList) > 0 {
			i := rng.Intn(len(liveList))
			k := liveList[i]
			liveList[i] = liveList[len(liveList)-1]
			liveList = liveList[:len(liveList)-1]
			delete(live, k)
			muts = append(muts, Mutation{Kind: MutDelete, U: graph.VertexID(k >> 32), V: graph.VertexID(uint32(k))})
			continue
		}
		u, v := rng.Uint32()%nv, rng.Uint32()%nv
		if u == v || live[uint64(u)<<32|uint64(v)] {
			continue
		}
		dest := make([]int, c.K())
		if rng.Intn(3) == 0 {
			d := rng.Intn(c.N())
			for j := range dest {
				dest[j] = d // all-same: exercises the core fast path
			}
		} else {
			for j := range dest {
				dest[j] = rng.Intn(c.N())
			}
		}
		live[uint64(u)<<32|uint64(v)] = true
		liveList = append(liveList, uint64(u)<<32|uint64(v))
		muts = append(muts, Mutation{Kind: MutInsert, U: graph.VertexID(u), V: graph.VertexID(v), Dest: dest})
	}
	return muts
}

// applyClean replays mutations directly onto a composite — the
// reference the recovered store must match bit for bit.
func applyClean(t testing.TB, c *composite.Composite, muts []Mutation) {
	t.Helper()
	for _, m := range muts {
		switch m.Kind {
		case MutInsert:
			if err := c.InsertEdge(m.U, m.V, m.Dest); err != nil {
				t.Fatal(err)
			}
		case MutDelete:
			c.DeleteEdge(m.U, m.V)
		}
	}
}

func TestStoreRoundTrip(t *testing.T) {
	g, c := testComposite(t)
	dir := t.TempDir()
	s, err := Create(dir, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	muts := genMutations(t, g, s.Composite(), 120, 7)
	for _, m := range muts {
		switch m.Kind {
		case MutInsert:
			if err := s.Insert(m.U, m.V, m.Dest); err != nil {
				t.Fatal(err)
			}
		case MutDelete:
			if found, err := s.Delete(m.U, m.V); err != nil || !found {
				t.Fatalf("delete (%d,%d): found=%v err=%v", m.U, m.V, found, err)
			}
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if s.Committed() != 120 {
		t.Fatalf("committed = %d, want 120", s.Committed())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	_, clean := testComposite(t)
	applyClean(t, clean, muts)

	s2, info, err := Open(dir, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if info.Replayed != 120 || info.Damage != nil || info.DiscardedMutations != 0 {
		t.Fatalf("unexpected recovery: %v", info)
	}
	if err := s2.Composite().EqualState(clean); err != nil {
		t.Fatalf("recovered state diverges: %v", err)
	}
	if err := s2.Composite().ValidateIndex(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreSnapshotCompaction(t *testing.T) {
	g, c := testComposite(t)
	dir := t.TempDir()
	s, err := Create(dir, c, Options{SnapshotEvery: 40})
	if err != nil {
		t.Fatal(err)
	}
	muts := genMutations(t, g, s.Composite(), 150, 11)
	if _, _, err := s.Apply(muts); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Compaction must have dropped covered segments: the bytes on disk
	// hold only the newest snapshots plus the short live log suffix.
	names, _ := os.ReadDir(dir)
	walFiles, snapFiles := 0, 0
	for _, e := range names {
		if _, ok := parseWALName(e.Name()); ok {
			walFiles++
		}
		if _, ok := parseSnapName(e.Name()); ok {
			snapFiles++
		}
	}
	if walFiles != 1 {
		t.Fatalf("compaction left %d wal segments, want 1", walFiles)
	}
	if snapFiles > 2 {
		t.Fatalf("compaction left %d snapshots, want <= 2", snapFiles)
	}

	_, clean := testComposite(t)
	applyClean(t, clean, muts)
	s2, info, err := Open(dir, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.Composite().EqualState(clean); err != nil {
		t.Fatalf("recovered state diverges after compaction: %v (info %v)", err, info)
	}
}

func TestStoreUncommittedTailDiscarded(t *testing.T) {
	g, c := testComposite(t)
	dir := t.TempDir()
	s, err := Create(dir, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	muts := genMutations(t, g, s.Composite(), 20, 13)
	for i, m := range muts {
		if m.Kind == MutInsert {
			err = s.Insert(m.U, m.V, m.Dest)
		} else {
			_, err = s.Delete(m.U, m.V)
		}
		if err != nil {
			t.Fatal(err)
		}
		// Commit everything except the last 5 mutations...
		if i < 15 {
			if err := s.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// ...and "crash" without committing them: write the pending frames
	// by hand so the tail is on disk yet unacked.
	f, err := os.OpenFile(filepath.Join(dir, s.segName), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(s.pending); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, clean := testComposite(t)
	applyClean(t, clean, muts[:15])
	s2, info, err := Open(dir, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if info.Replayed != 15 || info.DiscardedMutations != 5 {
		t.Fatalf("replayed=%d discarded=%d, want 15/5", info.Replayed, info.DiscardedMutations)
	}
	if info.TruncatedBytes == 0 {
		t.Fatal("expected the unacked tail to be physically truncated")
	}
	if err := s2.Composite().EqualState(clean); err != nil {
		t.Fatalf("recovered state diverges: %v", err)
	}
}

func TestStoreDiskFaults(t *testing.T) {
	g, base := testComposite(t)
	muts := genMutations(t, g, base, 30, 17)

	cases := []struct {
		name   string
		events []fault.DiskEvent
		// wantErr matches the sentinel Commit (or Insert) must surface.
		wantErr error
	}{
		// Write op 0..1 are segment header + snapshot during Create;
		// later ops are commit batches.
		{"short write", []fault.DiskEvent{{Kind: fault.ShortWrite, N: 6, Bytes: 11}}, fault.ErrDiskFault},
		{"fsync error", []fault.DiskEvent{{Kind: fault.SyncErr, N: 6}}, fault.ErrDiskFault},
		{"crash mid write", []fault.DiskEvent{{Kind: fault.CrashWrite, N: 6, Bytes: 7}}, fault.ErrCrashed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, c := testComposite(t)
			dir := t.TempDir()
			inj := fault.NewDiskInjector(tc.events...)
			s, err := Create(dir, c, Options{Injector: inj})
			if err != nil {
				t.Fatal(err)
			}
			applied := 0
			var opErr error
			for _, m := range muts {
				if m.Kind == MutInsert {
					opErr = s.Insert(m.U, m.V, m.Dest)
				} else {
					_, opErr = s.Delete(m.U, m.V)
				}
				if opErr == nil {
					opErr = s.Commit()
				}
				if opErr != nil {
					break
				}
				applied++
			}
			if opErr == nil {
				t.Fatalf("no operation failed under %v", tc.events)
			}
			if !errors.Is(opErr, tc.wantErr) {
				t.Fatalf("got %v, want %v", opErr, tc.wantErr)
			}
			// The store is poisoned: every later mutation refuses.
			if err := s.Insert(1, 2, make([]int, c.K())); !errors.Is(err, errPoisoned) {
				t.Fatalf("poisoned store accepted a mutation: %v", err)
			}
			s.Close()

			// Reopen without faults: the recovered state must equal a
			// clean replay of some acked prefix (sync batching means the
			// failed op itself may or may not have reached the disk, but
			// never a half batch).
			s2, info, err := Open(dir, g, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if info.Replayed > applied+1 {
				t.Fatalf("replayed %d, only %d acked (+1 in flight)", info.Replayed, applied)
			}
			_, clean := testComposite(t)
			applyClean(t, clean, muts[:info.Replayed])
			if err := s2.Composite().EqualState(clean); err != nil {
				t.Fatalf("recovered state is not a committed prefix: %v", err)
			}
			if err := s2.Composite().ValidateIndex(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestStoreSyncEveryBatching(t *testing.T) {
	g, c := testComposite(t)
	dir := t.TempDir()
	inj := fault.NewDiskInjector() // pure op counter
	s, err := Create(dir, c, Options{SyncEvery: 8, Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	muts := genMutations(t, g, s.Composite(), 32, 19)
	if _, _, err := s.Apply(muts); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Apply commits per marker batch; with no markers it is one big
	// commit, so drive per-mutation commits instead to count syncs.
	dir2 := t.TempDir()
	_, c2 := testComposite(t)
	inj2 := fault.NewDiskInjector()
	s2, err := Create(dir2, c2, Options{SyncEvery: 8, Injector: inj2})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range muts {
		if m.Kind == MutInsert {
			err = s2.Insert(m.U, m.V, m.Dest)
		} else {
			_, err = s2.Delete(m.U, m.V)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := s2.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	writesBeforeClose := inj2.Writes()
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if writesBeforeClose != 32+2 { // 32 commit batches + header + snapshot
		t.Fatalf("unexpected write count %d", writesBeforeClose)
	}
}

// reportsEqual compares the deterministic fields of two engine
// reports bitwise (WallTime and fault diagnostics excluded, per the
// engine's determinism contract).
func reportsEqual(a, b *engine.Report) bool {
	if a.Supersteps != b.Supersteps ||
		math.Float64bits(a.CriticalWork) != math.Float64bits(b.CriticalWork) ||
		math.Float64bits(a.CriticalBytes) != math.Float64bits(b.CriticalBytes) {
		return false
	}
	if len(a.Work) != len(b.Work) {
		return false
	}
	for i := range a.Work {
		if math.Float64bits(a.Work[i]) != math.Float64bits(b.Work[i]) ||
			a.MsgCount[i] != b.MsgCount[i] || a.MsgBytes[i] != b.MsgBytes[i] {
			return false
		}
	}
	return true
}

// runPR simulates PR over one bundled partition and returns the
// deterministic report.
func runPR(t testing.TB, p *partition.Partition) *engine.Report {
	t.Helper()
	out, err := algorithms.Run(engine.NewCluster(p).UsePool(pool.Serial()), costmodel.PR,
		algorithms.Options{PRIterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	return out.Report
}

func TestFsckHealthyAndDamaged(t *testing.T) {
	g, c := testComposite(t)
	dir := t.TempDir()
	s, err := Create(dir, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	muts := genMutations(t, g, s.Composite(), 40, 23)
	if _, _, err := s.Apply(muts); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := Fsck(dir, g, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy() {
		var buf bytes.Buffer
		rep.Format(&buf)
		t.Fatalf("clean store reported unhealthy:\n%s", buf.String())
	}

	// Bit-flip the middle of the live segment: fsck must localise the
	// damaged frame, and repair must truncate exactly there.
	segPath := filepath.Join(dir, walName(1))
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	frames, dmg, err := scanSegment(data, 1)
	if err != nil || dmg != nil {
		t.Fatalf("clean segment does not scan: %v %v", err, dmg)
	}
	victim := frames[len(frames)/2]
	data[victim.off+frameHdr+2] ^= 0x40
	if err := os.WriteFile(segPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err = Fsck(dir, g, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Healthy() {
		t.Fatal("fsck missed a bit flip")
	}
	seg := rep.Segments[len(rep.Segments)-1]
	if seg.Damage == nil || seg.Damage.Offset != victim.off {
		t.Fatalf("damage at %v, want offset %d", seg.Damage, victim.off)
	}

	rep, err = Fsck(dir, g, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Repaired) != 1 {
		t.Fatalf("repair took %d actions, want 1", len(rep.Repaired))
	}
	rep, err = Fsck(dir, g, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy() {
		t.Fatal("store still unhealthy after repair")
	}
	// And the repaired store opens to a committed prefix.
	s2, info, err := Open(dir, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	_, clean := testComposite(t)
	applyClean(t, clean, muts[:info.Replayed])
	if err := s2.Composite().EqualState(clean); err != nil {
		t.Fatalf("repaired store diverges: %v", err)
	}
}

func TestParseUpdatesRoundTrip(t *testing.T) {
	in := `# stream
+ 1 2 0 1
- 3 4

+ 5 6
commit
`
	muts, err := ParseUpdates(bytes.NewReader([]byte(in)))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"+ 1 2 0 1", "- 3 4", "+ 5 6", "commit"}
	if len(muts) != len(want) {
		t.Fatalf("parsed %d mutations, want %d", len(muts), len(want))
	}
	for i, m := range muts {
		if m.String() != want[i] {
			t.Fatalf("mutation %d renders %q, want %q", i, m.String(), want[i])
		}
	}
	for _, bad := range []string{"x 1 2", "+ 1", "- 1 2 3", "commit now", "+ a b"} {
		if _, err := ParseUpdates(bytes.NewReader([]byte(bad))); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}
