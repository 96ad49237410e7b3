package store

import (
	"errors"
	"os"
	"testing"

	"adp/internal/composite"
	"adp/internal/fault"
	"adp/internal/partition"
)

// TestStoreReplaceComposite proves the maintenance-plane primitive: a
// durable whole-composite swap that survives reopen, accepts further
// mutations afterwards, and compacts the log it obsoletes.
func TestStoreReplaceComposite(t *testing.T) {
	g, c := testComposite(t)
	dir := t.TempDir()
	s, err := Create(dir, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pre := genMutations(t, g, s.Composite(), 40, 19)
	if _, _, err := s.Apply(pre); err != nil {
		t.Fatal(err)
	}

	// Build the "refined candidate": a clone nudged by a few more
	// coherent mutations, so it genuinely differs from the live state.
	cand := s.Composite().Clone()
	extra := genMutations(t, g, cand, 10, 23)
	applyClean(t, cand, extra)
	if err := s.ReplaceComposite(cand); err != nil {
		t.Fatal(err)
	}
	if s.Composite() != cand {
		t.Fatal("store did not adopt the replacement composite")
	}

	// The swap is a snapshot: the WAL it covered must be compacted away.
	names, _ := os.ReadDir(dir)
	walFiles := 0
	for _, e := range names {
		if _, ok := parseWALName(e.Name()); ok {
			walFiles++
		}
	}
	if walFiles != 1 {
		t.Fatalf("replace left %d wal segments, want 1", walFiles)
	}

	// Post-swap mutations land on the new lineage.
	post := genMutations(t, g, s.Composite(), 25, 29)
	if _, _, err := s.Apply(post); err != nil {
		t.Fatal(err)
	}
	lsn := s.LSN()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	_, clean := testComposite(t)
	applyClean(t, clean, pre)
	applyClean(t, clean, extra)
	applyClean(t, clean, post)

	s2, info, err := Open(dir, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if info.Damage != nil || info.DiscardedMutations != 0 {
		t.Fatalf("unexpected recovery: %v", info)
	}
	if s2.LSN() != lsn {
		t.Fatalf("reopened LSN %d, want %d", s2.LSN(), lsn)
	}
	if err := s2.Composite().EqualState(clean); err != nil {
		t.Fatalf("reopened state diverges from replaced lineage: %v", err)
	}
	if err := s2.Composite().ValidateIndex(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreReplaceShapeMismatch: a malformed candidate is rejected
// before any disk write and must NOT poison the store.
func TestStoreReplaceShapeMismatch(t *testing.T) {
	g, c := testComposite(t)
	dir := t.TempDir()
	s, err := Create(dir, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Wrong K: a single-partition composite over the same graph.
	assign := make([]int, g.NumVertices())
	for v := range assign {
		assign[v] = v % c.N()
	}
	p, err := partition.FromVertexAssignment(g, assign, c.N())
	if err != nil {
		t.Fatal(err)
	}
	bad, err := composite.New(g, []*partition.Partition{p})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ReplaceComposite(bad); err == nil {
		t.Fatal("shape-mismatched replacement accepted")
	}
	if s.Failed() != nil {
		t.Fatal("shape mismatch poisoned the store")
	}
	// The write path still works.
	muts := genMutations(t, g, s.Composite(), 5, 31)
	if _, _, err := s.Apply(muts); err != nil {
		t.Fatalf("store unusable after rejected replacement: %v", err)
	}
}

// TestStoreReplaceDiskFault: an injected fsync failure during the
// promotion sync poisons the store but leaves the in-memory composite
// on the previous state, and a faultless reopen recovers a committed
// prefix of the OLD lineage.
func TestStoreReplaceDiskFault(t *testing.T) {
	g, c := testComposite(t)
	dir := t.TempDir()
	inj := fault.NewDiskInjector()
	s, err := Create(dir, c, Options{Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	pre := genMutations(t, g, s.Composite(), 10, 37)
	if _, _, err := s.Apply(pre); err != nil {
		t.Fatal(err)
	}
	before := s.Composite()

	// Swap in a fresh injector whose counters start at zero: sync #0 is
	// ReplaceComposite's pre-snapshot log sync.
	inj2 := fault.NewDiskInjector(fault.DiskEvent{Kind: fault.SyncErr, N: 0})
	s.fs = withInjector(vfs(osVFS{}), inj2)

	cand := s.Composite().Clone()
	if err := s.ReplaceComposite(cand); err == nil {
		t.Fatal("replacement succeeded under injected sync failure")
	} else if !errors.Is(err, fault.ErrDiskFault) {
		t.Fatalf("got %v, want wrapped ErrDiskFault", err)
	}
	if s.Failed() == nil {
		t.Fatal("store not poisoned after failed replacement")
	}
	if s.Composite() != before {
		t.Fatal("failed replacement swapped the in-memory composite")
	}
	s.Close()

	_, clean := testComposite(t)
	applyClean(t, clean, pre)
	s2, _, err := Open(dir, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.Composite().EqualState(clean); err != nil {
		t.Fatalf("reopen does not recover the pre-replacement lineage: %v", err)
	}
}

// TestStoreRetrySync: a transient commit-time fsync failure poisons
// the store retryably; RetrySync completes the interrupted commit and
// the final state matches a clean replay of every mutation.
func TestStoreRetrySync(t *testing.T) {
	g, c := testComposite(t)
	dir := t.TempDir()
	inj := fault.NewDiskInjector(fault.DiskEvent{Kind: fault.SyncErr, N: storeCreateSyncs})
	s, err := Create(dir, c, Options{Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	muts := genMutations(t, g, s.Composite(), 12, 41)

	m := muts[0]
	if m.Kind == MutInsert {
		err = s.Insert(m.U, m.V, m.Dest)
	} else {
		_, err = s.Delete(m.U, m.V)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err == nil {
		t.Fatal("commit succeeded under injected sync failure")
	} else if !errors.Is(err, fault.ErrDiskFault) {
		t.Fatalf("got %v, want wrapped ErrDiskFault", err)
	}
	if s.Failed() == nil || !s.CanRetrySync() {
		t.Fatalf("failed=%v retryable=%v, want both true", s.Failed(), s.CanRetrySync())
	}
	if s.Committed() != 0 {
		t.Fatalf("committed=%d before retry, want 0", s.Committed())
	}

	if err := s.RetrySync(); err != nil {
		t.Fatalf("retry after transient fault: %v", err)
	}
	if s.Failed() != nil || s.CanRetrySync() {
		t.Fatal("poison not cleared by successful retry")
	}
	if s.Committed() != 1 {
		t.Fatalf("committed=%d after retry, want 1", s.Committed())
	}

	// The store is fully live again.
	for _, m := range muts[1:] {
		if m.Kind == MutInsert {
			err = s.Insert(m.U, m.V, m.Dest)
		} else {
			_, err = s.Delete(m.U, m.V)
		}
		if err == nil {
			err = s.Commit()
		}
		if err != nil {
			t.Fatal(err)
		}
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
	if info.Replayed != len(muts) || info.DiscardedMutations != 0 {
		t.Fatalf("recovery replayed=%d discarded=%d, want %d/0", info.Replayed, info.DiscardedMutations, len(muts))
	}
	if err := s2.Composite().EqualState(clean); err != nil {
		t.Fatalf("recovered state diverges: %v", err)
	}
}

// TestStoreRetrySyncBurst: consecutive SyncErr events keep the store
// poisoned-but-retryable until the burst passes; a short write is NOT
// retryable and RetrySync refuses it.
func TestStoreRetrySyncBurst(t *testing.T) {
	g, c := testComposite(t)
	dir := t.TempDir()
	// A burst of three failing fsyncs starting at the first commit.
	inj := fault.NewDiskInjector(
		fault.DiskEvent{Kind: fault.SyncErr, N: storeCreateSyncs},
		fault.DiskEvent{Kind: fault.SyncErr, N: storeCreateSyncs + 1},
		fault.DiskEvent{Kind: fault.SyncErr, N: storeCreateSyncs + 2},
	)
	s, err := Create(dir, c, Options{Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	muts := genMutations(t, g, s.Composite(), 3, 43)
	m := muts[0]
	if m.Kind == MutInsert {
		err = s.Insert(m.U, m.V, m.Dest)
	} else {
		_, err = s.Delete(m.U, m.V)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err == nil {
		t.Fatal("commit succeeded under injected sync failure")
	}
	// Two retries still inside the burst fail but stay retryable.
	for i := 0; i < 2; i++ {
		if err := s.RetrySync(); err == nil {
			t.Fatalf("retry %d succeeded inside the burst", i)
		}
		if !s.CanRetrySync() {
			t.Fatalf("retry %d lost retryability", i)
		}
	}
	// The burst has passed: the third retry lands.
	if err := s.RetrySync(); err != nil {
		t.Fatalf("retry after burst: %v", err)
	}
	if s.Committed() != 1 {
		t.Fatalf("committed=%d, want 1", s.Committed())
	}

	// Non-retryable class: a short write poisons permanently.
	dir2 := t.TempDir()
	_, c2 := testComposite(t)
	inj2 := fault.NewDiskInjector(fault.DiskEvent{Kind: fault.ShortWrite, N: 6, Bytes: 3})
	s2, err := Create(dir2, c2, Options{Injector: inj2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	muts2 := genMutations(t, g, s2.Composite(), 30, 47)
	var opErr error
	for _, m := range muts2 {
		if m.Kind == MutInsert {
			opErr = s2.Insert(m.U, m.V, m.Dest)
		} else {
			_, opErr = s2.Delete(m.U, m.V)
		}
		if opErr == nil {
			opErr = s2.Commit()
		}
		if opErr != nil {
			break
		}
	}
	if opErr == nil {
		t.Fatal("no operation failed under the short write")
	}
	if s2.CanRetrySync() {
		t.Fatal("short write reported as retryable")
	}
	if err := s2.RetrySync(); err == nil {
		t.Fatal("RetrySync accepted a non-retryable failure")
	}
}

// storeCreateSyncs is the number of fsyncs Create issues before the
// store is ready (snapshot file + fresh segment header). Asserted by
// TestStoreCreateSyncCount so drift is caught, not silently absorbed.
const storeCreateSyncs = 2

func TestStoreCreateSyncCount(t *testing.T) {
	_, c := testComposite(t)
	inj := fault.NewDiskInjector(fault.DiskEvent{Kind: fault.SyncErr, N: storeCreateSyncs})
	s, err := Create(t.TempDir(), c, Options{Injector: inj})
	if err != nil {
		t.Fatalf("Create hit the sync pinned past its own syncs: %v", err)
	}
	defer s.Close()
	// The very next commit must be sync #storeCreateSyncs and fail.
	if err := s.Insert(1, 2, destVec(c, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err == nil {
		t.Fatal("first commit did not hit the pinned sync: storeCreateSyncs is stale")
	}
}

func destVec(c *composite.Composite, frag int) []int {
	d := make([]int, c.K())
	for i := range d {
		d[i] = frag
	}
	return d
}
