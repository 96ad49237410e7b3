package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"adp/internal/graph"
)

// The crash-point sweep is the store's central robustness claim made
// executable: record a 500-mutation run, simulate a process kill at
// every frame boundary of its WAL (and at sampled intra-frame byte
// offsets), reopen, and require the recovered composite to equal a
// clean replay of exactly the acked prefix — same placement,
// bitwise-identical engine report. Fsck must classify every cut the
// same way recovery does.

// dumpFsckArtifact renders the fsck view of a failing store directory
// into the test log and, when ADPART_FSCK_ARTIFACT names a file, appends
// it there so CI can upload the classification alongside the failure.
func dumpFsckArtifact(t *testing.T, dir, context string) {
	t.Helper()
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# %s: %s\n", t.Name(), context)
	rep, err := Fsck(dir, nil, false)
	if err != nil {
		fmt.Fprintf(&buf, "fsck failed: %v\n", err)
	} else {
		rep.Format(&buf)
	}
	if path := os.Getenv("ADPART_FSCK_ARTIFACT"); path != "" {
		if f, ferr := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644); ferr == nil {
			f.Write(buf.Bytes())
			f.Close()
		}
	}
	t.Log(buf.String())
}

// recordRun drives nMuts mutations through a fresh store, one commit
// per mutation, and returns the mutation list plus the raw bytes of the
// snapshot and the single WAL segment left on disk.
func recordRun(t *testing.T, nMuts int) (g *graph.Graph, muts []Mutation, snapBytes, walBytes []byte) {
	t.Helper()
	g, c := testComposite(t)
	dir := t.TempDir()
	s, err := Create(dir, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	muts = genMutations(t, g, s.Composite(), nMuts, 29)
	for _, m := range muts {
		if m.Kind == MutInsert {
			err = s.Insert(m.U, m.V, m.Dest)
		} else {
			_, err = s.Delete(m.U, m.V)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snapBytes, err = os.ReadFile(filepath.Join(dir, snapName(0)))
	if err != nil {
		t.Fatal(err)
	}
	walBytes, err = os.ReadFile(filepath.Join(dir, walName(1)))
	if err != nil {
		t.Fatal(err)
	}
	return g, muts, snapBytes, walBytes
}

// crashDir materialises a store directory as a crash at byte offset
// cut of the WAL would leave it.
func crashDir(t *testing.T, snapBytes, walBytes []byte, cut int64) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapName(0)), snapBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walName(1)), walBytes[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestCrashPointSweep(t *testing.T) {
	g, muts, snapBytes, walBytes := recordRun(t, 500)

	frames, dmg, err := scanSegment(walBytes, 1)
	if err != nil || dmg != nil {
		t.Fatalf("recorded segment does not scan cleanly: %v %v", err, dmg)
	}

	// Per-frame prefix accounting: after a cut at offset L, recovery
	// must land on the last commit with end <= L; that commit covers a
	// known mutation prefix because the run committed per mutation.
	type point struct {
		end       int64
		committed int // mutations acked by this commit
		mutsSeen  int // mutation frames fully on disk at this offset
	}
	boundaries := []point{{end: segHdrLen}}
	mutsSeen, committed := 0, 0
	for _, f := range frames {
		switch f.kind {
		case recInsert, recDelete:
			mutsSeen++
		case recCommit:
			committed = mutsSeen
		}
		boundaries = append(boundaries, point{end: f.end, committed: committed, mutsSeen: mutsSeen})
	}
	if committed != len(muts) {
		t.Fatalf("recorded %d commits for %d mutations", committed, len(muts))
	}

	// The cut set: every frame boundary, plus sampled intra-frame
	// offsets (mid-header and mid-payload of every 7th frame) and two
	// cuts inside the segment header itself. Short mode samples the
	// boundaries instead of visiting all of them.
	type cut struct {
		off      int64
		boundary bool
		prefix   int // committed mutations a reopen must recover
		discard  int // on-disk but never-acked mutations it must drop
	}
	var cuts []cut
	boundaryStride := 1
	frameStride := 7
	if testing.Short() {
		boundaryStride, frameStride = 17, 83
	}
	cuts = append(cuts, cut{off: 0}, cut{off: 3})
	for i, b := range boundaries {
		if i%boundaryStride == 0 || i == len(boundaries)-1 {
			cuts = append(cuts, cut{off: b.end, boundary: true, prefix: b.committed, discard: b.mutsSeen - b.committed})
		}
	}
	for i, f := range frames {
		if i%frameStride != 0 {
			continue
		}
		prev := boundaries[i] // state as of this frame's start
		for _, off := range []int64{f.off + 3, f.off + frameHdr + (f.end-f.off-frameHdr)/2} {
			if off > f.off && off < f.end {
				cuts = append(cuts, cut{off: off, prefix: prev.committed, discard: prev.mutsSeen - prev.committed})
			}
		}
	}
	// Ascending cuts let the clean reference composite advance
	// incrementally instead of replaying from scratch each time.
	for i := 1; i < len(cuts); i++ {
		for j := i; j > 0 && cuts[j].off < cuts[j-1].off; j-- {
			cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
		}
	}

	_, clean := testComposite(t)
	cleanAt := 0
	advance := func(prefix int) {
		for ; cleanAt < prefix; cleanAt++ {
			m := muts[cleanAt]
			if m.Kind == MutInsert {
				if err := clean.InsertEdge(m.U, m.V, m.Dest); err != nil {
					t.Fatal(err)
				}
			} else {
				clean.DeleteEdge(m.U, m.V)
			}
		}
	}

	reportStride := 31
	if testing.Short() {
		reportStride = 200
	}
	for ci, c := range cuts {
		dir := crashDir(t, snapBytes, walBytes, c.off)

		// Fsck first (Open repairs the log in place): an intra-frame cut
		// must be classified as damage at the torn frame's start; a
		// boundary cut is structurally clean, at most an un-acked tail.
		rep, err := Fsck(dir, g, false)
		if err != nil {
			t.Fatalf("cut %d: fsck: %v", c.off, err)
		}
		seg := rep.Segments[0]
		if c.boundary {
			if seg.Damage != nil {
				dumpFsckArtifact(t, dir, fmt.Sprintf("boundary cut at %d misclassified", c.off))
				t.Fatalf("cut %d is a frame boundary, fsck reports damage: %v", c.off, seg.Damage)
			}
		} else {
			if seg.Damage == nil {
				dumpFsckArtifact(t, dir, fmt.Sprintf("intra-frame cut at %d missed", c.off))
				t.Fatalf("cut %d tears a frame, fsck reports no damage", c.off)
			}
			wantOff := int64(0) // header cuts damage the whole file
			for _, b := range boundaries {
				if b.end <= c.off && b.end > wantOff {
					wantOff = b.end
				}
			}
			if c.off < segHdrLen {
				wantOff = 0
			}
			if seg.Damage.Offset != wantOff {
				dumpFsckArtifact(t, dir, fmt.Sprintf("cut at %d mislocalised", c.off))
				t.Fatalf("cut %d: damage at offset %d, want %d", c.off, seg.Damage.Offset, wantOff)
			}
		}

		s, info, err := Open(dir, g, Options{})
		if err != nil {
			dumpFsckArtifact(t, dir, fmt.Sprintf("open failed after cut at %d", c.off))
			t.Fatalf("cut %d: open: %v", c.off, err)
		}
		if info.Replayed != c.prefix {
			dumpFsckArtifact(t, dir, fmt.Sprintf("wrong prefix after cut at %d", c.off))
			t.Fatalf("cut %d: replayed %d mutations, want %d (%v)", c.off, info.Replayed, c.prefix, info)
		}
		if info.DiscardedMutations != c.discard {
			dumpFsckArtifact(t, dir, fmt.Sprintf("wrong discard count after cut at %d", c.off))
			t.Fatalf("cut %d: discarded %d mutations, want %d (%v)", c.off, info.DiscardedMutations, c.discard, info)
		}
		if c.boundary != (info.Damage == nil) {
			t.Fatalf("cut %d: boundary=%v but damage=%v", c.off, c.boundary, info.Damage)
		}

		advance(c.prefix)
		if err := s.Composite().ValidateIndex(); err != nil {
			dumpFsckArtifact(t, dir, fmt.Sprintf("corrupt index after cut at %d", c.off))
			t.Fatalf("cut %d: recovered index invalid: %v", c.off, err)
		}
		if err := s.Composite().EqualState(clean); err != nil {
			dumpFsckArtifact(t, dir, fmt.Sprintf("state divergence after cut at %d", c.off))
			t.Fatalf("cut %d: recovered state is not the %d-mutation prefix: %v", c.off, c.prefix, err)
		}
		if ci%reportStride == 0 || ci == len(cuts)-1 {
			got := runPR(t, s.Composite().Partition(0))
			want := runPR(t, clean.Partition(0))
			if !reportsEqual(got, want) {
				dumpFsckArtifact(t, dir, fmt.Sprintf("report divergence after cut at %d", c.off))
				t.Fatalf("cut %d: engine report diverges from clean prefix replay", c.off)
			}
		}

		// A reopened store must accept new writes: the sweep's final
		// guarantee is recovery into a live store, not a read-only view.
		if ci == len(cuts)-1 {
			if err := s.Insert(1, 2, RouteDest(s.Composite(), 1, 2)); err != nil {
				t.Fatalf("recovered store rejects writes: %v", err)
			}
			if err := s.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", c.off, err)
		}
	}
}

// TestCrashSweepBitFlips corrupts sampled frames of the recorded run
// in place (no truncation) and asserts fsck localises each flip to the
// containing frame, repair truncates there, and the repaired store
// opens to exactly the commits before the flipped frame.
func TestCrashSweepBitFlips(t *testing.T) {
	g, muts, snapBytes, walBytes := recordRun(t, 120)
	frames, dmg, err := scanSegment(walBytes, 1)
	if err != nil || dmg != nil {
		t.Fatalf("recorded segment does not scan cleanly: %v %v", err, dmg)
	}
	committedBefore := make([]int, len(frames))
	mutsSeen, committed := 0, 0
	for i, f := range frames {
		committedBefore[i] = committed
		switch f.kind {
		case recInsert, recDelete:
			mutsSeen++
		case recCommit:
			committed = mutsSeen
		}
	}

	stride := 11
	if testing.Short() {
		stride = 47
	}
	for i := 0; i < len(frames); i += stride {
		f := frames[i]
		corrupt := append([]byte(nil), walBytes...)
		corrupt[f.off+frameHdr+4] ^= 0x08 // payload bit: CRC must catch it
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, snapName(0)), snapBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, walName(1)), corrupt, 0o644); err != nil {
			t.Fatal(err)
		}

		rep, err := Fsck(dir, g, false)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Healthy() {
			t.Fatalf("frame %d: fsck missed a payload bit flip", i)
		}
		if d := rep.Segments[0].Damage; d == nil || d.Offset != f.off {
			dumpFsckArtifact(t, dir, fmt.Sprintf("bit flip in frame %d mislocalised", i))
			t.Fatalf("frame %d: damage %v, want offset %d", i, d, f.off)
		}

		if _, err := Fsck(dir, g, true); err != nil {
			t.Fatal(err)
		}
		rep, err = Fsck(dir, g, false)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Healthy() {
			dumpFsckArtifact(t, dir, fmt.Sprintf("repair of frame %d left damage", i))
			t.Fatalf("frame %d: store unhealthy after repair", i)
		}

		s, info, err := Open(dir, g, Options{})
		if err != nil {
			t.Fatalf("frame %d: open after repair: %v", i, err)
		}
		if info.Replayed != committedBefore[i] {
			t.Fatalf("frame %d: replayed %d, want %d", i, info.Replayed, committedBefore[i])
		}
		_, clean := testComposite(t)
		applyClean(t, clean, muts[:info.Replayed])
		if err := s.Composite().EqualState(clean); err != nil {
			dumpFsckArtifact(t, dir, fmt.Sprintf("divergence after repairing frame %d", i))
			t.Fatalf("frame %d: repaired state diverges: %v", i, err)
		}
		s.Close()
	}
}

// v2Segment rewrites a recorded segment's version-1 header as the
// version-2 header earlier stores wrote on the segment they opened after
// a recovery, carrying dest.
func v2Segment(walBytes []byte, dest []int) []byte {
	hdr := binary.LittleEndian.AppendUint32(nil, segMagic)
	hdr = binary.LittleEndian.AppendUint32(hdr, segVersionDest)
	hdr = append(hdr, encodeDest(dest)...)
	return append(hdr, walBytes[segHdrLen:]...)
}

// TestOpenReadsV2Segments pins the reader of the version-2 segment
// header, which nothing writes any more: a recorded log under a v2
// header is healthy to fsck and recovers the same state as under its
// v1 header, and the recovered store logs on, with its next reopen
// replaying across both header versions.
func TestOpenReadsV2Segments(t *testing.T) {
	g, muts, snapBytes, walBytes := recordRun(t, 120)
	_, clean := testComposite(t)
	applyClean(t, clean, muts)
	for _, tc := range []struct {
		name string
		wal  []byte
	}{{"v1", walBytes}, {"v2", v2Segment(walBytes, []int{1, 2})}} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, snapName(0)), snapBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, walName(1)), tc.wal, 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := Fsck(dir, g, false)
		if err != nil || !rep.Healthy() {
			var buf bytes.Buffer
			if rep != nil {
				rep.Format(&buf)
			}
			t.Fatalf("%s: fsck err=%v:\n%s", tc.name, err, buf.String())
		}
		s, info, err := Open(dir, g, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if info.Replayed != len(muts) || info.Damage != nil || info.TruncatedBytes != 0 {
			t.Fatalf("%s: recovery %v, want all %d replayed and nothing cut", tc.name, info, len(muts))
		}
		if err := s.Composite().EqualState(clean); err != nil {
			t.Fatalf("%s: recovered state diverges: %v", tc.name, err)
		}
		if err := s.Insert(1, 2, []int{0, 0}); err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s, info, err = Open(dir, g, Options{})
		if err != nil {
			t.Fatalf("%s: second open: %v", tc.name, err)
		}
		if info.Replayed != len(muts)+1 || info.Damage != nil {
			t.Fatalf("%s: second recovery %v, want %d replayed", tc.name, info, len(muts)+1)
		}
		s.Close()
	}
}
