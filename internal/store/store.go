package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"adp/internal/composite"
	"adp/internal/fault"
	"adp/internal/graph"
)

// Options threads the deterministic disk-fault injector through the
// write path. Every commit is fsynced before it is acked, and the store
// compacts by its own rule (see Commit).
type Options struct {
	// Injector, when non-nil, arms deterministic disk faults (short
	// writes, fsync errors, crash-after-N-bytes) on every write and
	// sync the store issues.
	Injector *fault.DiskInjector
}

// RecoveryInfo describes what Open found and did.
type RecoveryInfo struct {
	// SnapshotLSN is the LSN covered by the snapshot recovery started
	// from.
	SnapshotLSN uint64
	// Replayed counts committed mutations applied on top of the
	// snapshot.
	Replayed int
	// DiscardedMutations counts valid but never-committed mutations
	// dropped from the tail (they were never acked).
	DiscardedMutations int
	// Damage is non-nil when the scan stopped at a torn or corrupt
	// frame; DamagedSegment names the file.
	Damage         *Damage
	DamagedSegment string
	// TruncatedBytes is how many trailing log bytes Open cut away
	// (damage plus uncommitted tail).
	TruncatedBytes int64
}

// String summarises the recovery on one line.
func (ri *RecoveryInfo) String() string {
	s := fmt.Sprintf("recovered from snapshot lsn=%d: replayed %d, discarded %d uncommitted, truncated %d bytes",
		ri.SnapshotLSN, ri.Replayed, ri.DiscardedMutations, ri.TruncatedBytes)
	if ri.Damage != nil {
		s += fmt.Sprintf(" (%s: %s at offset %d)", ri.DamagedSegment, ri.Damage.Reason, ri.Damage.Offset)
	}
	return s
}

// Store is a crash-consistent composite partition: an in-memory
// composite fronted by an append-only mutation WAL and full snapshots,
// a new one whenever the log past the newest outgrows it. Not safe for
// concurrent use; wrap externally if shared.
type Store struct {
	dir  string
	fs   vfs
	g    *graph.Graph
	comp *composite.Composite

	nextLSN uint64 // LSN the next appended frame gets
	snapLSN uint64 // highest LSN folded into the newest snapshot

	// commitLSN is the LSN of the newest durably committed frame. It is
	// the only Store field readable from other goroutines (/metrics and
	// the serving plane's epoch cut); everything else keeps the
	// single-writer discipline.
	commitLSN atomic.Uint64

	// What interpret has read since the last commit boundary (recovery
	// only; Insert and Delete apply eagerly and stage nothing): the
	// decoded mutations, folded into the composite only at their commit
	// marker, and the sticky destination vector in effect.
	staged     []stagedMut
	stickyDest []int

	seg     vfile
	segName string

	pending     []byte // encoded frames since the last commit
	pendingMuts int
	lastDest    []int // destination vector of the last logged recDest

	// The compaction rule's two counts: the newest snapshot's size and
	// the frame bytes logged since it. rebase sets them, finishCommit
	// adds to logBytes, and Open seeds them from the snapshot it loaded
	// and the frames it replayed.
	snapBytes, logBytes int64

	committed int64

	failed error
	// retrySync marks the poisoning failure as a commit-time fsync
	// error: the batch's bytes already reached the file intact, so a
	// follow-up RetrySync can complete the commit. Short or torn
	// writes never set it.
	retrySync bool
}

func snapName(lsn uint64) string { return fmt.Sprintf("snap-%016x.comp", lsn) }
func walName(lsn uint64) string  { return fmt.Sprintf("wal-%016x.log", lsn) }

func parseLSNName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	hex := name[len(prefix) : len(name)-len(suffix)]
	lsn, err := strconv.ParseUint(hex, 16, 64)
	// Only the spelling snapName/walName produce counts: every reader
	// below re-derives the file name from the LSN.
	return lsn, err == nil && fmt.Sprintf("%016x", lsn) == hex
}

func parseSnapName(name string) (uint64, bool) { return parseLSNName(name, "snap-", ".comp") }
func parseWALName(name string) (uint64, bool)  { return parseLSNName(name, "wal-", ".log") }

// storeFiles is the one reading of a store directory: the LSNs of its
// snapshot files and of its WAL segments, each ascending (List sorts
// names, and fixed-width hex sorts as the numbers do). A directory
// holds a store exactly when either list is non-empty.
func storeFiles(fs vfs, dir string) (snaps, segs []uint64, err error) {
	names, err := fs.List(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, n := range names {
		if lsn, ok := parseSnapName(n); ok {
			snaps = append(snaps, lsn)
		} else if lsn, ok := parseWALName(n); ok {
			segs = append(segs, lsn)
		}
	}
	return snaps, segs, nil
}

// Create initialises dir (created if missing, must not already hold a
// store) with a full snapshot of c at LSN 0 and an empty WAL segment.
// The store mutates c in place from then on.
func Create(dir string, c *composite.Composite, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	fs := withInjector(vfs(osVFS{}), opts.Injector)
	snaps, segs, err := storeFiles(fs, dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if len(snaps)+len(segs) > 0 {
		return nil, fmt.Errorf("store: %s already holds a store (%d snapshots, %d segments); use Open", dir, len(snaps), len(segs))
	}
	s := &Store{dir: dir, fs: fs, g: c.Partition(0).Graph()}
	// LSN 0 is reserved for "nothing logged yet": the initial snapshot
	// covers it and the first frame gets LSN 1.
	if err := s.rebase(c, 0); err != nil {
		return nil, err
	}
	return s, nil
}

// Open recovers the store in dir over g: it loads the newest
// snapshot, replays every committed WAL mutation above its LSN in
// order, truncates the log at the first torn or corrupt frame (and
// drops any valid but uncommitted tail — those mutations were never
// acked), and resumes logging on a fresh segment. Damaged log bytes
// never fail an Open; it fails only when the newest snapshot is
// unreadable. There is no older one to fall back to: compaction deletes
// it together with the segments it would need.
func Open(dir string, g *graph.Graph, opts Options) (*Store, *RecoveryInfo, error) {
	fs := withInjector(vfs(osVFS{}), opts.Injector)
	snaps, segLSNs, err := storeFiles(fs, dir)
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	if len(snaps) == 0 {
		return nil, nil, fmt.Errorf("store: %s holds no snapshot", dir)
	}
	compLSN := snaps[len(snaps)-1]
	data, err := fs.ReadFile(join(dir, snapName(compLSN)))
	var comp *composite.Composite
	if err == nil {
		// Dynamic read: logged inserts put arcs in snapshots that the
		// base graph never had.
		comp, err = composite.Read(bytes.NewReader(data), g)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("store: newest snapshot %s unreadable: %w", snapName(compLSN), err)
	}
	info := &RecoveryInfo{SnapshotLSN: compLSN}
	s := &Store{dir: dir, fs: fs, g: g, comp: comp, snapLSN: compLSN, nextLSN: compLSN + 1, snapBytes: int64(len(data))}
	if err := s.replay(segLSNs, info); err != nil {
		return nil, nil, err
	}
	if err := s.openSegment(); err != nil {
		return nil, nil, err
	}
	s.commitLSN.Store(s.nextLSN - 1)
	return s, info, nil
}

// stagedMut is one mutation interpret has read and not yet folded.
type stagedMut struct {
	insert bool
	u, v   graph.VertexID
	dest   []int
}

// checkDest validates a destination vector against c's shape — the one
// check every vector read from a log or passed by a caller passes
// before it can place an arc.
func checkDest(c *composite.Composite, dest []int) error {
	if len(dest) != c.K() {
		return fmt.Errorf("dest vector has %d entries, composite has %d partitions", len(dest), c.K())
	}
	for _, d := range dest {
		if d < 0 || d >= c.N() {
			return fmt.Errorf("dest fragment %d out of range [0,%d)", d, c.N())
		}
	}
	return nil
}

// checkEdge rejects an edge naming a vertex g does not have.
func checkEdge(g *graph.Graph, u, v graph.VertexID) error {
	if n := uint64(g.NumVertices()); uint64(u) >= n || uint64(v) >= n {
		return fmt.Errorf("edge (%d,%d) beyond %d vertices", u, v, n)
	}
	return nil
}

// interpret is the one reader of WAL frames, used by recovery. It
// validates a frame's (kind, body) against the composite's shape, the
// vertex range and the sticky destination vector, and stages what the
// frame says: a recDest replaces the sticky vector, an insert or delete
// joins the staged batch unless the snapshot already covers its LSN. Nothing reaches the composite until
// foldStaged runs at the batch's commit marker; recovery reports a
// rejection as Damage. (Insert and Delete do not come through here:
// they apply first and log second, because locality routing reads the
// composite mid-batch.)
func (s *Store) interpret(lsn uint64, kind recKind, body []byte) error {
	switch kind {
	case recDest:
		dest, err := decodeDest(body)
		if err == nil {
			err = checkDest(s.comp, dest)
		}
		if err != nil {
			return err
		}
		s.stickyDest = dest
	case recInsert, recDelete:
		u, v, err := decodeEdge(body)
		if err == nil {
			err = checkEdge(s.g, u, v)
		}
		if err != nil {
			return err
		}
		if kind == recInsert && s.stickyDest == nil {
			return errors.New("insert with no destination vector in effect")
		}
		if lsn > s.snapLSN {
			s.staged = append(s.staged, stagedMut{insert: kind == recInsert, u: u, v: v, dest: s.stickyDest})
		}
	case recCommit:
		if len(body) != 4 {
			return fmt.Errorf("commit body is %d bytes, want 4", len(body))
		}
	default:
		return fmt.Errorf("unknown record kind %d", kind)
	}
	return nil
}

// foldStaged applies the staged batch to the composite and reports its
// size — the one place a logged mutation reaches memory on recovery,
// run only at the batch's commit marker. An error is unreachable after
// interpret's validation and leaves the composite half-updated.
func (s *Store) foldStaged() (int, error) {
	for _, m := range s.staged {
		if m.insert {
			if err := s.comp.InsertEdge(m.u, m.v, m.dest); err != nil {
				return 0, fmt.Errorf("applying insert (%d,%d): %w", m.u, m.v, err)
			}
		} else {
			s.comp.DeleteEdge(m.u, m.v)
		}
	}
	n := len(s.staged)
	s.staged = s.staged[:0]
	return n, nil
}

// liveStart returns the index of the first segment the snapshot at
// snapLSN does not fully cover: the last one starting at or below
// snapLSN+1, else 0. Recovery skips the segments before it without
// decoding, so bitrot in compacted-but-undeleted history cannot block
// live replay.
func liveStart(segLSNs []uint64, snapLSN uint64) int {
	live := 0
	for si := 1; si < len(segLSNs); si++ {
		if segLSNs[si] <= snapLSN+1 {
			live = si
		}
	}
	return live
}

// linkBreak is the log's chain rule, shared by recovery and fsck: a live
// segment must start at next, the LSN after the previous live segment's
// last frame, and the first live segment (next == 0) must reach back to
// the snapshot at snapLSN. It returns why a segment starting at start
// breaks the chain, or "" when it links. Nothing from a break on is
// trustworthy: frames are missing or overlap.
func linkBreak(start, next, snapLSN uint64) string {
	if next != 0 && start != next {
		return fmt.Sprintf("segment starts at lsn %d, want %d", start, next)
	}
	if next == 0 && start > snapLSN+1 {
		return fmt.Sprintf("segment starts at lsn %d, snapshot covers %d", start, snapLSN)
	}
	return ""
}

// segCut is one segment file cutLog changed.
type segCut struct {
	si    int   // index into the segment list
	bytes int64 // length before the cut
	keep  int64 // length after it; -1 for a removed file
}

// cutLog makes the log end at byte keepOff of segment keepSeg, the one
// cut recovery and fsck -repair make: every later segment is removed
// and keepSeg is truncated to keepOff when longer. A keepSeg below live
// keeps no live segment; the covered segments before live are never
// touched.
func cutLog(fs vfs, dir string, segLSNs []uint64, live, keepSeg int, keepOff int64) ([]segCut, error) {
	var cuts []segCut
	for si := len(segLSNs) - 1; si >= max(keepSeg, live); si-- {
		name := walName(segLSNs[si])
		path := join(dir, name)
		// An unreadable length counts as nothing to cut, as a file already
		// at or below the boundary does.
		size, _ := fs.Size(path)
		if si > keepSeg {
			if err := fs.Remove(path); err != nil {
				return cuts, fmt.Errorf("removing %s: %w", name, err)
			}
			cuts = append(cuts, segCut{si, size, -1})
		} else if size > keepOff {
			if err := fs.Truncate(path, keepOff); err != nil {
				return cuts, fmt.Errorf("truncating %s: %w", name, err)
			}
			cuts = append(cuts, segCut{si, size, keepOff})
		}
	}
	return cuts, nil
}

// replay walks the WAL segments in LSN order, applies committed
// batches above the snapshot LSN, and physically truncates the log at
// the first damage or after the last commit. It leaves logBytes at the
// frame bytes of the log it keeps.
func (s *Store) replay(segLSNs []uint64, info *RecoveryInfo) error {
	var (
		next   = uint64(0) // expected first LSN; 0 accepts any start
		logged int64       // frame bytes scanned so far
	)
	live := liveStart(segLSNs, s.snapLSN)
	// Where the log ends once recovery is done: just past the last
	// commit, else after the first live segment's header (v2 headers are
	// longer than the fixed 8 bytes), else — the log does not reach the
	// snapshot or its first header is unreadable — nowhere: no live
	// segment is kept.
	keepSeg, keepOff := -1, int64(0)
	damageAt := func(si int, off int64, reason string) {
		if info.Damage == nil {
			info.Damage = &Damage{Offset: off, Reason: reason}
			info.DamagedSegment = walName(segLSNs[si])
		}
	}

scan:
	for si := live; si < len(segLSNs); si++ {
		start := segLSNs[si]
		if why := linkBreak(start, next, s.snapLSN); why != "" {
			damageAt(si, 0, why)
			break scan
		}
		data, err := s.fs.ReadFile(join(s.dir, walName(start)))
		if err != nil {
			return fmt.Errorf("store: reading segment %s: %w", walName(start), err)
		}
		frames, dmg, err := scanSegment(data, start)
		if err != nil {
			damageAt(si, 0, err.Error())
			break scan
		}
		if si == live {
			keepSeg, keepOff = si, segmentHeaderLen(data)
		}
		for _, f := range frames {
			if err := s.interpret(f.lsn, f.kind, f.body); err != nil {
				damageAt(si, f.off, err.Error())
				break scan
			}
			logged += f.end - f.off
			if f.kind == recCommit {
				n, err := s.foldStaged()
				if err != nil {
					// Classified as damage rather than a failed recovery.
					damageAt(si, f.off, err.Error())
					break scan
				}
				info.Replayed += n
				keepSeg, keepOff = si, f.end
				s.nextLSN = f.lsn + 1
				s.logBytes = logged
			}
		}
		if dmg != nil {
			damageAt(si, dmg.Offset, dmg.Reason)
			break scan
		}
		next = start + uint64(len(frames))
	}
	info.DiscardedMutations = len(s.staged)
	s.staged = s.staged[:0]

	// Physical truncation: cut the damaged/uncommitted tail so future
	// opens see a log ending exactly at the last acked commit.
	cuts, err := cutLog(s.fs, s.dir, segLSNs, live, keepSeg, keepOff)
	for _, c := range cuts {
		info.TruncatedBytes += c.bytes - max(c.keep, 0)
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// openSegment starts a fresh active segment at the next LSN.
func (s *Store) openSegment() error {
	s.segName = walName(s.nextLSN)
	f, err := s.fs.Create(join(s.dir, s.segName))
	if err != nil {
		return s.fail(fmt.Errorf("store: creating segment: %w", err))
	}
	hdr := newSegmentHeader()
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return s.fail(fmt.Errorf("store: writing segment header: %w", err))
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return s.fail(fmt.Errorf("store: syncing segment header: %w", err))
	}
	s.seg = f
	// A fresh segment re-logs the destination vector on first use.
	s.lastDest = nil
	return nil
}

// fail poisons the store: after a write-path error the in-memory
// composite may be ahead of the acked log, so every further operation
// refuses until the caller reopens (recovering the last acked state).
func (s *Store) fail(err error) error {
	if s.failed == nil {
		s.failed = err
	}
	return err
}

var errPoisoned = errors.New("store: previous write failed; reopen to recover")

func (s *Store) ready() error {
	if s.failed != nil {
		return fmt.Errorf("%w (cause: %v)", errPoisoned, s.failed)
	}
	if s.seg == nil {
		return errors.New("store: closed")
	}
	return nil
}

// Failed returns the failure that poisoned the write path, nil while
// the store is healthy.
func (s *Store) Failed() error { return s.failed }

// CanRetrySync reports whether the poisoning failure is a retryable
// commit-time fsync error: the batch's frames reached the file intact
// and only the durability barrier failed, so re-issuing the fsync can
// complete the commit. Short writes, torn frames and failures after
// the segment closed are never retryable.
func (s *Store) CanRetrySync() bool {
	return s.failed != nil && s.retrySync && s.seg != nil
}

// RetrySync re-issues the fsync whose failure poisoned the store. On
// success the interrupted commit's bookkeeping is completed and the
// poison cleared — the store is fully usable again, with every
// previously acked batch durable. On failure the store stays poisoned
// and remains retryable, so retrySyncLadder can make a bounded number
// of attempts before the caller gives up and reopens.
func (s *Store) RetrySync() error {
	if !s.CanRetrySync() {
		return fmt.Errorf("store: failure is not a retryable fsync (cause: %v)", s.failed)
	}
	if err := s.seg.Sync(); err != nil {
		s.failed = fmt.Errorf("store: retrying log sync: %w", err)
		return s.failed
	}
	// Durable now: finish what flush skipped when the sync failed.
	s.failed = nil
	s.retrySync = false
	s.finishCommit()
	return nil
}

// retrySyncLadder is the one back-off loop around RetrySync. err is what
// a Commit just returned. While the store is retryably poisoned — by
// that commit's fsync (err says so), or by the fsync that seals the
// segment for the compaction after a commit that had already landed
// (err is nil) — and attempts remain, the ladder sleeps base<<attempt
// and re-issues the fsync; once it lands, the interrupted commit is
// complete and err is cleared. It returns the attempts made and the
// final error: only an exhausted ladder or a non-retryable failure
// (torn write, crash, rejected input) leaves the store poisoned.
func (s *Store) retrySyncLadder(err error, attempts int, base time.Duration) (int, error) {
	tried := 0
	for ; tried < attempts && s.CanRetrySync(); tried++ {
		time.Sleep(base << tried)
		if s.RetrySync() == nil {
			err = nil
		}
	}
	return tried, err
}

// Composite exposes the live in-memory composite. Mutate it only
// through the store, or the log diverges from the state.
func (s *Store) Composite() *composite.Composite { return s.comp }

// LSN returns the LSN of the most recently appended frame.
func (s *Store) LSN() uint64 { return s.nextLSN - 1 }

// CommittedLSN returns the LSN of the newest durably committed frame.
// Unlike every other accessor it is safe to call from any goroutine.
func (s *Store) CommittedLSN() uint64 { return s.commitLSN.Load() }

// Committed returns the number of mutations committed through this
// handle.
func (s *Store) Committed() int64 { return s.committed }

// Insert coherently inserts the edge into every bundled partition and
// logs it. dest[j] names the target fragment in partition j; an empty
// dest routes each partition by endpoint locality
// (refine.RouteFragment). Durable only after Commit.
func (s *Store) Insert(u, v graph.VertexID, dest []int) error {
	if err := s.ready(); err != nil {
		return err
	}
	if err := checkEdge(s.g, u, v); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if len(dest) == 0 {
		dest = RouteDest(s.comp, u, v)
	}
	// Checked before the vector is logged: a recDest that recovery would
	// reject must never reach the file.
	if err := checkDest(s.comp, dest); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if !slices.Equal(dest, s.lastDest) {
		s.pending = appendFrame(s.pending, s.nextLSN, recDest, encodeDest(dest))
		s.nextLSN++
		s.lastDest = append([]int(nil), dest...)
	}
	if err := s.comp.InsertEdge(u, v, dest); err != nil {
		return err
	}
	var eb [8]byte
	putEdge(eb[:], u, v)
	s.pending = appendFrame(s.pending, s.nextLSN, recInsert, eb[:])
	s.nextLSN++
	s.pendingMuts++
	return nil
}

// Delete coherently deletes the edge from every bundled partition and
// logs it; reports whether any copy existed (absent edges are not
// logged). Durable only after Commit.
func (s *Store) Delete(u, v graph.VertexID) (bool, error) {
	if err := s.ready(); err != nil {
		return false, err
	}
	if !s.comp.DeleteEdge(u, v) {
		return false, nil
	}
	var eb [8]byte
	putEdge(eb[:], u, v)
	s.pending = appendFrame(s.pending, s.nextLSN, recDelete, eb[:])
	s.nextLSN++
	s.pendingMuts++
	return true, nil
}

// Commit appends a commit marker and writes the whole batch to the log
// in one append and fsyncs it; the batch is acked once Commit returns
// nil. A no-op with nothing pending.
//
// The store compacts by one rule: a commit that leaves more frame bytes
// in the log past the newest snapshot than that snapshot holds then
// takes a snapshot, inline, so the log stays no longer than the
// snapshot and a reopen replays at most a snapshot's worth of frames.
// The batch is durable before the snapshot starts, so a failed snapshot
// is not the batch's error: Commit returns nil and the failure poisons
// the store for the next operation — retryably when it is the fsync
// sealing the segment, which retrySyncLadder then re-issues.
func (s *Store) Commit() error { return s.commit(true) }

func (s *Store) commit(compact bool) error {
	if err := s.ready(); err != nil {
		return err
	}
	if len(s.pending) == 0 {
		return nil
	}
	var cnt [4]byte
	binary.LittleEndian.PutUint32(cnt[:], uint32(s.pendingMuts))
	s.pending = appendFrame(s.pending, s.nextLSN, recCommit, cnt[:])
	s.nextLSN++
	if err := s.flush(); err != nil {
		return err
	}
	if compact && s.logBytes > s.snapBytes {
		_ = s.snapshot() // every failure in it poisons the store
	}
	return nil
}

// flush is the one commit: everything pending — a batch ending in its
// commit marker — goes to the log in a single append, is fsynced, and
// only then becomes visible through finishCommit.
func (s *Store) flush() error {
	if _, err := s.seg.Write(s.pending); err != nil {
		return s.fail(fmt.Errorf("store: appending commit batch: %w", err))
	}
	if err := s.seg.Sync(); err != nil {
		// The batch (commit frame included) is already in the file; only
		// the fsync failed, so the commit can be completed by RetrySync.
		// pending/committed are deliberately left alone: finishCommit
		// runs from there on success.
		s.retrySync = true
		return s.fail(fmt.Errorf("store: syncing log: %w", err))
	}
	s.finishCommit()
	return nil
}

// finishCommit is the bookkeeping of a batch that just became durable:
// count it, drop the pending bytes, and only then advance the watermark
// readers see.
func (s *Store) finishCommit() {
	s.committed += int64(s.pendingMuts)
	s.logBytes += int64(len(s.pending))
	s.pending = s.pending[:0]
	s.pendingMuts = 0
	s.commitLSN.Store(s.nextLSN - 1)
}

// snapshot commits anything pending, persists the full composite via
// an fsynced temp file plus atomic rename, rotates to a fresh WAL
// segment, and compacts: covered segments and every older snapshot are
// deleted.
func (s *Store) snapshot() error {
	if err := s.commit(false); err != nil {
		return err
	}
	if err := s.seal("snapshot"); err != nil {
		return err
	}
	if err := s.rebase(s.comp, s.nextLSN-1); err != nil {
		return err
	}
	s.compact()
	return nil
}

// seal is the one end of an active segment: fsync it, close it. A
// failed fsync poisons retryably (the file is still open and intact); a
// failed close does not.
func (s *Store) seal(before string) error {
	if err := s.seg.Sync(); err != nil {
		s.retrySync = true
		return s.fail(fmt.Errorf("store: syncing log before %s: %w", before, err))
	}
	err := s.seg.Close()
	s.seg = nil
	if err != nil {
		return s.fail(fmt.Errorf("store: closing segment: %w", err))
	}
	return nil
}

// rebase makes (comp, lsn) the store's durable base: the snapshot is
// persisted, and only once it is visible does the store adopt comp, move
// the watermark to lsn and open a fresh segment at lsn+1.
func (s *Store) rebase(comp *composite.Composite, lsn uint64) error {
	// Encode in memory first: the snapshot lands in one Write call, so
	// injected write faults hit whole-snapshot boundaries and the op
	// count stays deterministic for the fault schedules.
	var buf bytes.Buffer
	if err := composite.Write(&buf, comp); err != nil {
		return s.fail(fmt.Errorf("store: encoding snapshot: %w", err))
	}
	if err := s.persistSnapshot(buf.Bytes(), lsn); err != nil {
		return s.fail(err)
	}
	s.comp, s.snapLSN, s.nextLSN = comp, lsn, lsn+1
	s.snapBytes, s.logBytes = int64(buf.Len()), 0
	if err := s.openSegment(); err != nil {
		return err
	}
	s.commitLSN.Store(lsn)
	return nil
}

// compact removes WAL segments covered by the newest snapshot and
// every older snapshot: without those segments an older snapshot could
// not be brought up to date, so none is kept. Advisory: a failed
// listing just leaves garbage for the next compaction.
func (s *Store) compact() {
	snaps, segs, err := storeFiles(s.fs, s.dir)
	if err != nil {
		return
	}
	for _, lsn := range segs {
		if walName(lsn) != s.segName {
			_ = s.fs.Remove(join(s.dir, walName(lsn)))
		}
	}
	for _, lsn := range snaps {
		if lsn < s.snapLSN {
			_ = s.fs.Remove(join(s.dir, snapName(lsn)))
		}
	}
}

// persistSnapshot publishes data as snap-<lsn> atomically: an fsynced
// temp file, then a rename.
func (s *Store) persistSnapshot(data []byte, lsn uint64) error {
	final := snapName(lsn)
	tmp := final + ".tmp"
	f, err := s.fs.Create(join(s.dir, tmp))
	if err != nil {
		return fmt.Errorf("store: creating snapshot: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: syncing snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: closing snapshot: %w", err)
	}
	if err := s.fs.Rename(join(s.dir, tmp), join(s.dir, final)); err != nil {
		return fmt.Errorf("store: publishing snapshot: %w", err)
	}
	return nil
}

// Close commits anything pending, syncs and closes the log. The store
// is unusable afterwards.
func (s *Store) Close() error {
	if s.seg == nil {
		return nil
	}
	err := s.commit(false)
	if err == nil {
		if err = s.seg.Sync(); err != nil {
			err = s.fail(fmt.Errorf("store: syncing log on close: %w", err))
		}
	}
	cerr := s.seg.Close()
	s.seg = nil
	if err != nil {
		return err
	}
	return cerr
}
