package store

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"adp/internal/graph"
)

// writePathHistory is the one recorded history every producer is held
// to: six Apply calls over seeded mutations — explicit and
// locality-routed inserts, deletes, calls holding several commit
// markers and calls ending without one.
func writePathHistory(t *testing.T) [][]Mutation {
	t.Helper()
	g, c := testComposite(t)
	muts := genMutations(t, g, c, 60, 97)
	for i := range muts {
		if muts[i].Kind == MutInsert && i%3 == 0 {
			muts[i].Dest = nil // routed against the composite mid-batch
		}
	}
	commit := Mutation{Kind: MutCommit}
	var calls [][]Mutation
	for i := 0; i < len(muts); i += 10 {
		call := append([]Mutation(nil), muts[i:i+4]...)
		call = append(call, commit)
		call = append(call, muts[i+4:i+10]...)
		if i%20 == 0 {
			call = append(call, commit)
		}
		calls = append(calls, call)
	}
	return calls
}

// hashDir fingerprints every file of a store directory, names and
// bytes, in name order.
func hashDir(t *testing.T, dir string) string {
	t.Helper()
	names, err := osVFS{}.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, n := range names {
		data, err := os.ReadFile(filepath.Join(dir, n))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", n, len(data))
		h.Write(data)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// walFrames concatenates the frame bytes (headers stripped) of every
// segment in dir, in LSN order, with the LSN of the first frame.
func walFrames(t *testing.T, dir string) (first uint64, frames []byte) {
	t.Helper()
	names, err := osVFS{}.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		lsn, ok := parseWALName(n)
		if !ok {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, n))
		if err != nil {
			t.Fatal(err)
		}
		hdr, err := parseSegmentHeader(data)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if first == 0 {
			first = lsn
		}
		frames = append(frames, data[hdr:]...)
	}
	return first, frames
}

// TestWritePathProducersAgree drives the recorded history through the
// two producers of the write path — leader Apply, and Open replaying a
// copy of the leader's directory — and requires one outcome: EqualState,
// coherent composites, one committed LSN, and identical committed frame
// bytes. The directory hashes were recorded at the commit before the
// producers shared an interpreter, a commit and a rotation, so they
// also pin the on-disk bytes across that change and every later one.
func TestWritePathProducersAgree(t *testing.T) {
	cases := []struct {
		name       string
		snapAfter  []int // the calls after which the leader snapshots
		leaderHash string
	}{
		{"plain", nil,
			"d9df5d0192eac86583c8dca8a3544211ef7a4400cf0bcd81c3c3a5ab76ff4a44"},
		// The snapshot rows hold the newest snapshot alone: compaction
		// deletes every older one.
		{"snapshot mid-stream", []int{2},
			"5e7d25bae6ef28966c627966b254a848843dfa6902845b08e725ab4961f4ae88"},
		// The case name is kept as a stable test id. It was recorded with
		// a snapshot every 25 committed mutations, which fired at the last
		// commit of calls 2 and 5; the history's log never outgrows the
		// snapshot, so the compaction rule adds none.
		{"auto snapshots, batched fsync", []int{2, 5},
			"6994421cf4f66d30121210b57d6604ef3acf61832c8f55ef14fc41adc5ee6793"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, c := testComposite(t)
			root := t.TempDir()
			dirL, dirC := root+"/lead", root+"/copy"
			leader, err := Create(dirL, c, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer leader.Close()

			for i, call := range writePathHistory(t) {
				if _, _, err := leader.Apply(call); err != nil {
					t.Fatalf("call %d: %v", i, err)
				}
				if slices.Contains(tc.snapAfter, i) {
					if err := leader.snapshot(); err != nil {
						t.Fatal(err)
					}
				}
			}

			// Second producer: recovery over a copy of the leader's files.
			if err := os.MkdirAll(dirC, 0o755); err != nil {
				t.Fatal(err)
			}
			names, err := osVFS{}.List(dirL)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range names {
				data, err := os.ReadFile(filepath.Join(dirL, n))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dirC, n), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			gotL := hashDir(t, dirL)
			reopened, info, err := Open(dirC, g, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer reopened.Close()
			if info.Damage != nil || info.DiscardedMutations != 0 || info.TruncatedBytes != 0 {
				t.Fatalf("recovery of a clean copy was not clean: %v", info)
			}

			for _, st := range []struct {
				name string
				s    *Store
			}{{"leader", leader}, {"reopened", reopened}} {
				if err := st.s.Composite().ValidateIndex(); err != nil {
					t.Fatalf("%s index: %v", st.name, err)
				}
			}
			if got, want := reopened.CommittedLSN(), leader.CommittedLSN(); got != want {
				t.Fatalf("reopened committed lsn %d, leader %d", got, want)
			}
			if err := leader.Composite().EqualState(reopened.Composite()); err != nil {
				t.Fatalf("leader vs reopened: %v", err)
			}

			// Recovery cut nothing and appended nothing: the reopened
			// directory holds the leader's committed frames byte for byte.
			firstL, framesL := walFrames(t, dirL)
			firstC, framesC := walFrames(t, dirC)
			if firstC != firstL || !bytes.Equal(framesC, framesL) {
				t.Fatalf("committed frame bytes differ: leader %d bytes from lsn %d, reopened %d bytes from lsn %d",
					len(framesL), firstL, len(framesC), firstC)
			}

			if gotL != tc.leaderHash {
				t.Fatalf("on-disk bytes moved:\n leader %s", gotL)
			}
		})
	}
}

// recVFS records the mutating operations a store issues, by base name,
// and passes everything through to the real filesystem.
type recVFS struct {
	osVFS
	ops *[]string
}

type recFile struct {
	f    vfile
	name string
	ops  *[]string
}

func (v recVFS) Create(name string) (vfile, error) {
	f, err := v.osVFS.Create(name)
	if err != nil {
		return nil, err
	}
	base := filepath.Base(name)
	*v.ops = append(*v.ops, "create "+base)
	return &recFile{f: f, name: base, ops: v.ops}, nil
}

func (v recVFS) Rename(o, n string) error {
	*v.ops = append(*v.ops, "rename "+filepath.Base(o)+" "+filepath.Base(n))
	return v.osVFS.Rename(o, n)
}

func (v recVFS) Remove(name string) error {
	*v.ops = append(*v.ops, "remove "+filepath.Base(name))
	return v.osVFS.Remove(name)
}

func (f *recFile) Write(p []byte) (int, error) {
	*f.ops = append(*f.ops, fmt.Sprintf("write %s %d", f.name, len(p)))
	return f.f.Write(p)
}

func (f *recFile) Sync() error {
	*f.ops = append(*f.ops, "sync "+f.name)
	return f.f.Sync()
}

func (f *recFile) Close() error {
	*f.ops = append(*f.ops, "close "+f.name)
	return f.f.Close()
}

// rotateSegment syncs and closes the active segment and opens a fresh
// one at the next LSN, with no pending batch: the bare rotation that
// snapshot makes under a new base.
func (s *Store) rotateSegment() error {
	if err := s.ready(); err != nil {
		return err
	}
	if len(s.pending) > 0 {
		return fmt.Errorf("store: rotate with %d pending bytes", len(s.pending))
	}
	if err := s.seal("rotate"); err != nil {
		return err
	}
	return s.openSegment()
}

// TestWritePathOpTrace pins the exact Create/Write/Sync/Close/Rename/
// Remove sequence behind each write-path call to the sequence
// recorded at the commit before those calls shared their helpers: the
// crash sweeps and every fault schedule address faults by write and
// sync ordinal, so an operation added, dropped or reordered here moves
// them all.
func TestWritePathOpTrace(t *testing.T) {
	g, c := testComposite(t)
	var ops []string
	rec := recVFS{ops: &ops}
	// trace runs fn and returns the operations it issued.
	trace := func(fn func() error) string {
		t.Helper()
		ops = ops[:0]
		if err := fn(); err != nil {
			t.Fatal(err)
		}
		return strings.Join(ops, "\n")
	}
	leader, err := Create(t.TempDir()+"/lead", c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	// Move the store onto the recording vfs; the rotation puts the
	// active segment under it too.
	leader.fs = rec
	if err := leader.rotateSegment(); err != nil {
		t.Fatal(err)
	}

	muts := genMutations(t, g, c.Clone(), 8, 101)
	got := map[string]string{}
	got["Commit"] = trace(func() error {
		_, _, err := leader.Apply(muts[:4])
		return err
	})
	got["Snapshot"] = trace(leader.snapshot)
	if _, _, err := leader.Apply(muts[4:]); err != nil {
		t.Fatal(err)
	}
	got["Snapshot after writes"] = trace(leader.snapshot)
	got["RotateSegment"] = trace(leader.rotateSegment)

	want := map[string]string{
		"Commit": `write wal-0000000000000001.log 175
sync wal-0000000000000001.log`,
		"Snapshot": `sync wal-0000000000000001.log
close wal-0000000000000001.log
create snap-0000000000000007.comp.tmp
write snap-0000000000000007.comp.tmp 37360
sync snap-0000000000000007.comp.tmp
close snap-0000000000000007.comp.tmp
rename snap-0000000000000007.comp.tmp snap-0000000000000007.comp
create wal-0000000000000008.log
write wal-0000000000000008.log 8
sync wal-0000000000000008.log
remove wal-0000000000000001.log
remove snap-0000000000000000.comp`,
		"Snapshot after writes": `sync wal-0000000000000008.log
close wal-0000000000000008.log
create snap-0000000000000010.comp.tmp
write snap-0000000000000010.comp.tmp 37424
sync snap-0000000000000010.comp.tmp
close snap-0000000000000010.comp.tmp
rename snap-0000000000000010.comp.tmp snap-0000000000000010.comp
create wal-0000000000000011.log
write wal-0000000000000011.log 8
sync wal-0000000000000011.log
remove wal-0000000000000008.log
remove snap-0000000000000007.comp`,
		"RotateSegment": `sync wal-0000000000000011.log
close wal-0000000000000011.log
create wal-0000000000000011.log
write wal-0000000000000011.log 8
sync wal-0000000000000011.log`,
	}
	if len(got) != len(want) {
		t.Fatalf("%d calls traced, %d pinned", len(got), len(want))
	}
	for call, w := range want {
		if got[call] != w {
			t.Errorf("%s issues\n%s\nwant\n%s", call, got[call], w)
		}
	}
}

// TestApplyFailurePoisons: a stream that fails part-way leaves its
// earlier mutations applied in memory but never acked, so Apply poisons
// the store rather than let the next commit ack them; a reopen recovers
// the state before the stream. A rejected Insert on its own changes
// nothing — in particular a destination vector recovery would refuse is
// never logged.
func TestApplyFailurePoisons(t *testing.T) {
	g, c := testComposite(t)
	dir := t.TempDir()
	s, err := Create(dir, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, dest := range [][]int{{0}, {0, c.N()}} {
		if err := s.Insert(1, 2, dest); err == nil {
			t.Fatalf("insert with dest %v accepted", dest)
		}
	}
	if s.Failed() != nil || len(s.pending) != 0 {
		t.Fatalf("rejected inserts left failed=%v, %d pending bytes", s.Failed(), len(s.pending))
	}

	muts := genMutations(t, g, c.Clone(), 3, 5)
	beyond := Mutation{Kind: MutInsert, U: 0, V: graph.VertexID(g.NumVertices())}
	if _, _, err := s.Apply(append(muts[:len(muts):len(muts)], beyond)); err == nil {
		t.Fatal("stream with an out-of-range edge applied")
	}
	if s.Failed() == nil || s.CanRetrySync() {
		t.Fatalf("failed=%v retryable=%v after a half-applied stream, want poisoned for good", s.Failed(), s.CanRetrySync())
	}
	if _, _, err := s.Apply(muts); !errors.Is(err, errPoisoned) {
		t.Fatalf("poisoned store answered %v", err)
	}
	s.Close()

	_, clean := testComposite(t)
	re, info, err := Open(dir, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if info.Replayed != 0 {
		t.Fatalf("recovery replayed %d never-acked mutations", info.Replayed)
	}
	if err := re.Composite().EqualState(clean); err != nil {
		t.Fatalf("recovered state is not the pre-stream state: %v", err)
	}
}
