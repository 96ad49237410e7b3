package store

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

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

// logPastSnapshot returns the size of dir's newest snapshot, its LSN,
// and the frame bytes of every WAL segment that starts above it (each
// segment the store writes has the 8-byte header).
func logPastSnapshot(t *testing.T, dir string) (snapBytes int64, snapLSN uint64, logBytes int64) {
	t.Helper()
	var fs osVFS
	snaps, segs, err := storeFiles(fs, dir)
	if err != nil || len(snaps) == 0 {
		t.Fatalf("store files: %v, %d snapshots", err, len(snaps))
	}
	snapLSN = snaps[len(snaps)-1]
	if snapBytes, err = fs.Size(filepath.Join(dir, snapName(snapLSN))); err != nil {
		t.Fatal(err)
	}
	for _, lsn := range segs {
		if lsn <= snapLSN {
			t.Fatalf("segment %s survived the snapshot at lsn %d", walName(lsn), snapLSN)
		}
		sz, err := fs.Size(filepath.Join(dir, walName(lsn)))
		if err != nil {
			t.Fatal(err)
		}
		logBytes += sz - segHdrLen
	}
	return snapBytes, snapLSN, logBytes
}

// TestStoreSnapshotCompaction: a store opened as adserve opens it
// (Options{}) takes 50,000 mutations in batches of 64. The compaction
// rule must keep the log's frames past the newest snapshot no longer
// than that snapshot after every commit, and a reopen must replay only
// the mutations committed after the newest snapshot.
func TestStoreSnapshotCompaction(t *testing.T) {
	const nMuts, batch = 50_000, 64
	g, c := testComposite(t)
	dir := t.TempDir()
	s, err := Create(dir, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	muts := genMutations(t, g, c.Clone(), nMuts, 11)
	compactions, sinceSnap := 0, 0
	lastSnap := uint64(0)
	for i := 0; i < nMuts; i += batch {
		call := muts[i:min(i+batch, nMuts)]
		if _, _, err := s.Apply(call); err != nil {
			t.Fatal(err)
		}
		snapBytes, snapLSN, logBytes := logPastSnapshot(t, dir)
		if logBytes > snapBytes {
			t.Fatalf("after %d mutations the log past the snapshot is %d bytes, the snapshot %d",
				i+len(call), logBytes, snapBytes)
		}
		sinceSnap += len(call)
		if snapLSN != lastSnap {
			compactions, sinceSnap, lastSnap = compactions+1, 0, snapLSN
		}
	}
	if compactions < 2 {
		t.Fatalf("%d compactions in %d mutations", compactions, nMuts)
	}
	t.Logf("%d compactions in %d mutations; %d follow the newest snapshot", compactions, nMuts, sinceSnap)
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
	if info.SnapshotLSN != lastSnap || info.Replayed != sinceSnap || info.Damage != nil {
		t.Fatalf("reopen %v, want snapshot lsn %d and %d replayed", info, lastSnap, sinceSnap)
	}
	if err := s2.Composite().EqualState(clean); err != nil {
		t.Fatalf("recovered state diverges after compaction: %v", err)
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

// TestStoreAutoSnapshotFaults: disk faults inside the snapshot the
// compaction rule takes after a commit. The batch was durable before
// the snapshot began, so what ApplyRetrying reports must match what a
// reopen recovers: nil, with every acked batch replayed. A torn or
// unsynced snapshot file poisons the store for good; a failed fsync
// sealing the segment stays retryable, the ladder completes it, and
// the next commit compacts. An injected crash models a process that
// never replied, so only the recovered committed prefix is checked.
func TestStoreAutoSnapshotFaults(t *testing.T) {
	const batch = 64
	g, base := testComposite(t)
	muts := genMutations(t, g, base, 40*batch, 53)
	batchOf := func(i int) []Mutation { return muts[i*batch : (i+1)*batch] }

	// A fault-free run finds the batch whose commit compacts first and
	// the write ordinal of that commit. Before the compaction every
	// write is followed by one fsync (Create's snapshot and header, then
	// one per commit), so the fsync ordinals match: w is the commit's
	// write and fsync, w+1 the snapshot's write and the fsync sealing
	// the segment, w+2 the snapshot file's fsync.
	fire, w := -1, 0
	{
		_, c := testComposite(t)
		inj := fault.NewDiskInjector()
		s, err := Create(t.TempDir(), c, Options{Injector: inj})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; fire < 0 && (i+1)*batch <= len(muts); i++ {
			w = inj.Writes()
			if _, _, err := s.Apply(batchOf(i)); err != nil {
				t.Fatal(err)
			}
			if s.snapLSN > 0 {
				fire = i
			}
		}
		s.Close()
		if fire < 1 {
			t.Fatalf("compaction fired at batch %d", fire)
		}
	}

	cases := []struct {
		name  string
		event fault.DiskEvent
		cause string // what the poisoning error names, for the permanent ones
	}{
		{"short write", fault.DiskEvent{Kind: fault.ShortWrite, N: w + 1, Bytes: 10}, "writing snapshot"},
		{"snapshot fsync error", fault.DiskEvent{Kind: fault.SyncErr, N: w + 2}, "syncing snapshot"},
		{"seal fsync error", fault.DiskEvent{Kind: fault.SyncErr, N: w + 1}, ""},
		{"crash mid snapshot", fault.DiskEvent{Kind: fault.CrashWrite, N: w + 1, Bytes: 10}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, c := testComposite(t)
			dir := t.TempDir()
			s, err := Create(dir, c, Options{Injector: fault.NewDiskInjector(tc.event)})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < fire; i++ {
				if _, _, err := s.Apply(batchOf(i)); err != nil {
					t.Fatal(err)
				}
			}
			_, _, retries, err := s.ApplyRetrying(batchOf(fire), 3, time.Microsecond)
			// prefix is how many mutations a reopen must recover, replayed
			// how many of them it must replay on top of the snapshot.
			prefix := (fire + 1) * batch
			replayed := prefix
			switch {
			case tc.event.Kind == fault.CrashWrite:
				prefix = -1 // the reply never left: any committed prefix from the acked batches on
			case tc.event.Kind == fault.SyncErr && tc.event.N == w+1:
				// Retried in place: the store is healthy, the snapshot was
				// not taken, and the next commit takes it.
				if err != nil || retries != 1 || s.Failed() || s.snapLSN != 0 {
					t.Fatalf("err=%v retries=%d failed=%v snapLSN=%d, want one clean retry and no snapshot",
						err, retries, s.Failed(), s.snapLSN)
				}
				if _, _, err := s.Apply(batchOf(fire + 1)); err != nil {
					t.Fatal(err)
				}
				if s.snapLSN == 0 {
					t.Fatal("the commit after the retried fsync did not compact")
				}
				prefix, replayed = prefix+batch, 0
			default:
				if err != nil || retries != 0 {
					t.Fatalf("durable batch reported err=%v after %d retries", err, retries)
				}
				if !s.Failed() || s.CanRetrySync() || !strings.Contains(s.failed.Error(), tc.cause) {
					t.Fatalf("failed=%v (%v) retryable=%v, want poisoned for good by %q",
						s.Failed(), s.failed, s.CanRetrySync(), tc.cause)
				}
				if _, _, err := s.Apply(batchOf(fire + 1)); !errors.Is(err, errPoisoned) {
					t.Fatalf("poisoned store answered %v", err)
				}
			}
			s.Close()

			s2, info, err := Open(dir, g, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if prefix < 0 {
				if info.Replayed < fire*batch || info.Replayed > (fire+1)*batch {
					t.Fatalf("replayed %d, want between the %d acked and the %d written", info.Replayed, fire*batch, (fire+1)*batch)
				}
				prefix, replayed = info.Replayed, info.Replayed
			}
			if info.Replayed != replayed || info.Damage != nil {
				t.Fatalf("reopen %v, want %d replayed", info, replayed)
			}
			_, clean := testComposite(t)
			applyClean(t, clean, muts[:prefix])
			if err := s2.Composite().EqualState(clean); err != nil {
				t.Fatalf("recovered state is not the %d-mutation prefix: %v", prefix, err)
			}
		})
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

// TestFsckRepairMakesOpensCut: a store whose log lost a whole segment.
// Fsck must flag it by Open's chain rule, and repair must cut the log
// exactly where Open would, so the repaired store is healthy and the
// next Open has nothing left to truncate.
func TestFsckRepairMakesOpensCut(t *testing.T) {
	for _, tc := range []struct {
		name    string
		missing int // index of the segment deleted
	}{
		{"middle segment missing", 2},
		{"first live segment missing", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, c := testComposite(t)
			dir := t.TempDir()
			s, err := Create(dir, c, Options{})
			if err != nil {
				t.Fatal(err)
			}
			// Four segments of 15 committed mutations each: every Open
			// starts a fresh segment.
			muts := genMutations(t, g, s.Composite(), 60, 7)
			for i := 0; i < 4; i++ {
				if i > 0 {
					if s, _, err = Open(dir, g, Options{}); err != nil {
						t.Fatal(err)
					}
				}
				if _, _, err := s.Apply(muts[i*15 : (i+1)*15]); err != nil {
					t.Fatal(err)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
			_, segs, err := storeFiles(osVFS{}, dir)
			if err != nil || len(segs) != 4 {
				t.Fatalf("want 4 segments, have %v (%v)", segs, err)
			}
			if err := os.Remove(filepath.Join(dir, walName(segs[tc.missing]))); err != nil {
				t.Fatal(err)
			}

			rep, err := Fsck(dir, g, false)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Healthy() || rep.ChainBroken == "" {
				t.Fatalf("fsck of a broken chain: healthy=%v chain=%q", rep.Healthy(), rep.ChainBroken)
			}
			rep, err = Fsck(dir, g, true)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Healthy() || len(rep.Repaired) == 0 {
				var buf bytes.Buffer
				rep.Format(&buf)
				t.Fatalf("repair left the store unhealthy:\n%s", buf.String())
			}
			s2, info, err := Open(dir, g, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if info.TruncatedBytes != 0 || info.Damage != nil {
				t.Fatalf("open after repair still cut the log: %v", info)
			}
			_, clean := testComposite(t)
			applyClean(t, clean, muts[:info.Replayed])
			if err := s2.Composite().EqualState(clean); err != nil {
				t.Fatalf("repaired store diverges: %v", err)
			}
		})
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

// TestWalStats sanity-checks the /metrics wal block numbers.
func TestWalStats(t *testing.T) {
	g, c := testComposite(t)
	st, err := Create(t.TempDir()+"/st", c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	muts := genMutations(t, g, c.Clone(), 10, 29)
	if _, _, err := st.Apply(append(muts[:len(muts):len(muts)], Mutation{Kind: MutCommit})); err != nil {
		t.Fatal(err)
	}
	ws := st.WalStats()
	if ws.CommittedLSN != st.CommittedLSN() {
		t.Fatalf("wal stats lsn %d, store %d", ws.CommittedLSN, st.CommittedLSN())
	}
	if ws.Segments < 1 || ws.Bytes <= 0 {
		t.Fatalf("implausible segment stats: %+v", ws)
	}
	if ws.Snapshots < 1 || ws.SnapshotBytes <= 0 {
		t.Fatalf("implausible snapshot stats: %+v", ws)
	}
}
