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

// Options tunes a store's durability/throughput trade and threads the
// deterministic disk-fault injector through the write path.
type Options struct {
	// SyncEvery is the number of commits between fsyncs: 0 or 1 syncs
	// every commit (full durability), N>1 batches N commits per fsync
	// (a bounded loss window of up to N-1 acked batches on power
	// failure — never an inconsistent state, recovery still lands on a
	// commit boundary).
	SyncEvery int
	// SnapshotEvery triggers an automatic snapshot + log compaction
	// once this many mutations have committed since the last snapshot;
	// 0 disables automatic snapshots (call Snapshot explicitly).
	SnapshotEvery int
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
	// SnapshotsSkipped counts newer snapshot files that failed to parse
	// and were passed over.
	SnapshotsSkipped int
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
// composite fronted by an append-only mutation WAL and periodic full
// snapshots. Not safe for concurrent use; wrap externally if shared.
type Store struct {
	dir  string
	fs   vfs
	opts Options
	g    *graph.Graph
	comp *composite.Composite

	nextLSN uint64 // LSN the next appended frame gets
	snapLSN uint64 // highest LSN folded into the newest snapshot

	// commitLSN is the LSN of the newest durably committed frame — the
	// replication watermark. It is the only Store field readable from
	// other goroutines (TailFrom, /metrics, the replication leader);
	// everything else keeps the single-writer discipline.
	commitLSN atomic.Uint64

	// What interpret has read since the last commit boundary (recovery
	// and the follower role; the leader applies eagerly and stages
	// nothing): the decoded mutations, folded into the composite only
	// once their commit marker is on disk, and the sticky destination
	// vector in effect — which a fresh segment's header records.
	staged     []stagedMut
	stickyDest []int

	seg     vfile
	segName string

	pending     []byte // encoded frames since the last commit
	pendingMuts int
	lastDest    []int // destination vector of the last logged recDest

	commitsSinceSync int
	mutsSinceSnap    int
	committed        int64

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

// newStoreDir makes dir (created if missing) ready to receive a fresh
// store and refuses one that already holds store files.
func newStoreDir(dir string, opts Options) (vfs, error) {
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
	return fs, nil
}

// Create initialises dir (created if missing, must not already hold a
// store) with a full snapshot of c at LSN 0 and an empty WAL segment.
// The store mutates c in place from then on.
func Create(dir string, c *composite.Composite, opts Options) (*Store, error) {
	fs, err := newStoreDir(dir, opts)
	if err != nil {
		return nil, err
	}
	s := &Store{dir: dir, fs: fs, opts: opts, g: c.Partition(0).Graph()}
	// LSN 0 is reserved for "nothing logged yet": the initial snapshot
	// covers it and the first frame gets LSN 1.
	if err := s.rebase(c, nil, 0); err != nil {
		return nil, err
	}
	return s, nil
}

// Open recovers the store in dir over g: it loads the newest readable
// snapshot, replays every committed WAL mutation above its LSN in
// order, truncates the log at the first torn or corrupt frame (and
// drops any valid but uncommitted tail — those mutations were never
// acked), and resumes logging on a fresh segment. Damaged log bytes
// never fail an Open; it fails only when no usable snapshot exists or
// when compaction has discarded frames a fallback snapshot would need.
func Open(dir string, g *graph.Graph, opts Options) (*Store, *RecoveryInfo, error) {
	fs := withInjector(vfs(osVFS{}), opts.Injector)
	snaps, segLSNs, err := storeFiles(fs, dir)
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	info := &RecoveryInfo{}
	if len(snaps) == 0 {
		return nil, nil, fmt.Errorf("store: %s holds no snapshot", dir)
	}

	// Newest readable snapshot wins.
	var comp *composite.Composite
	var compLSN uint64
	for i := len(snaps) - 1; i >= 0; i-- {
		data, rerr := fs.ReadFile(join(dir, snapName(snaps[i])))
		if rerr == nil {
			var c *composite.Composite
			// Dynamic read: logged inserts put arcs in snapshots that the
			// base graph never had.
			c, rerr = composite.Read(bytes.NewReader(data), g)
			if rerr == nil {
				comp, compLSN = c, snaps[i]
				break
			}
		}
		info.SnapshotsSkipped++
	}
	if comp == nil {
		return nil, nil, fmt.Errorf("store: no snapshot in %s is readable (%d tried)", dir, len(snaps))
	}
	if info.SnapshotsSkipped > 0 && len(segLSNs) > 0 && segLSNs[0] > compLSN+1 {
		// A fallback snapshot is only usable while the log still
		// reaches back to it; compaction may have cut that prefix.
		return nil, nil, fmt.Errorf("store: newest snapshot unreadable and log compacted past the %s fallback (log starts at lsn %d)",
			snapName(compLSN), segLSNs[0])
	}
	info.SnapshotLSN = compLSN

	s := &Store{dir: dir, fs: fs, opts: opts, g: g, comp: comp, snapLSN: compLSN, nextLSN: compLSN + 1}
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
// check every vector read from a log, a segment header or a caller
// passes before it can place an arc.
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

// interpret is the one reader of WAL frames, shared by recovery and the
// follower role. It validates a frame's (kind, body) against the
// composite's shape, the vertex range and the sticky destination
// vector, and stages what the frame says: a recDest replaces the sticky
// vector, an insert or delete joins the staged batch unless the
// snapshot already covers its LSN. Nothing reaches the composite until
// foldStaged runs at the batch's commit marker. What a rejection means
// is the caller's call: Damage on recovery, poison on a follower. (The
// leader does not come through here: its Insert/Delete apply first and
// log second, because locality routing reads the composite mid-batch.)
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
// size — the one place a logged mutation reaches memory on the recovery
// and follower paths, run only once the batch's commit marker is on
// disk. An error is unreachable after interpret's validation and leaves
// the composite half-updated.
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

// replay walks the WAL segments in LSN order, applies committed
// batches above the snapshot LSN, and physically truncates the log at
// the first damage or after the last commit.
func (s *Store) replay(segLSNs []uint64, info *RecoveryInfo) error {
	var (
		// destAtCommit is the sticky dest vector as of the last commit
		// boundary — what stickyDest is reset to afterwards so a restarted
		// follower can keep self-contained segment headers (a recDest in a
		// discarded uncommitted tail must not leak into it).
		destAtCommit []int
		next         = uint64(0) // expected first LSN; 0 accepts any start
	)
	// liveStart is the first segment not fully covered by the snapshot;
	// covered segments are skipped without decoding so bitrot in
	// compacted-but-undeleted history cannot block live replay.
	liveStart := 0
	for si := range segLSNs {
		if si+1 < len(segLSNs) && segLSNs[si+1] <= s.snapLSN+1 {
			liveStart = si + 1
		}
	}
	// Last fully-committed position within the live segments.
	lastCommitSeg, lastCommitOff := -1, int64(segHdrLen)
	// liveHdrLen is the liveStart segment's header length — the
	// truncation floor when no commit survives (v2 headers are longer
	// than the fixed 8 bytes).
	liveHdrLen := int64(segHdrLen)
	damageAt := func(si int, off int64, reason string) {
		if info.Damage == nil {
			info.Damage = &Damage{Offset: off, Reason: reason}
			info.DamagedSegment = walName(segLSNs[si])
		}
	}

scan:
	for si := liveStart; si < len(segLSNs); si++ {
		start := segLSNs[si]
		data, err := s.fs.ReadFile(join(s.dir, walName(start)))
		if err != nil {
			return fmt.Errorf("store: reading segment %s: %w", walName(start), err)
		}
		if next != 0 && start != next {
			// A gap or overlap between segments severs the LSN chain:
			// nothing from here on is trustworthy.
			damageAt(si, 0, fmt.Sprintf("segment starts at lsn %d, want %d", start, next))
			break scan
		}
		if next == 0 && start > s.snapLSN+1 {
			// The live log does not reach back to the snapshot: frames
			// between are missing, so nothing here can be applied.
			damageAt(si, 0, fmt.Sprintf("segment starts at lsn %d, snapshot covers %d", start, s.snapLSN))
			break scan
		}
		frames, hdrDest, dmg, err := scanSegmentDest(data, start)
		if err != nil {
			damageAt(si, 0, err.Error())
			break scan
		}
		if si == liveStart {
			liveHdrLen = segmentHeaderLen(data)
		}
		if hdrDest != nil {
			// A follower-opened segment seeds the sticky dest vector from
			// its header; validate like a recDest frame.
			if err := checkDest(s.comp, hdrDest); err != nil {
				damageAt(si, 0, "segment header: "+err.Error())
				break scan
			}
			// Segments open only at commit boundaries, so the header dest
			// is also the dest-at-commit state until a commit says
			// otherwise.
			s.stickyDest, destAtCommit = hdrDest, hdrDest
		}
		for _, f := range frames {
			if err := s.interpret(f.lsn, f.kind, f.body); err != nil {
				damageAt(si, f.off, err.Error())
				break scan
			}
			if f.kind == recCommit {
				n, err := s.foldStaged()
				if err != nil {
					// Classified as damage rather than a failed recovery.
					damageAt(si, f.off, err.Error())
					break scan
				}
				info.Replayed += n
				lastCommitSeg, lastCommitOff = si, f.end
				s.nextLSN = f.lsn + 1
				destAtCommit = s.stickyDest
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
	s.stickyDest = destAtCommit

	// Physical truncation: cut the damaged/uncommitted tail so future
	// opens see a log ending exactly at the last acked commit. Live
	// segments past the last commit go entirely; the one holding it is
	// truncated to the commit boundary. With no commit in the live log,
	// the first live segment is reset to its bare header.
	keepSeg, keepOff := lastCommitSeg, lastCommitOff
	if keepSeg < 0 {
		keepSeg, keepOff = liveStart, liveHdrLen
	}
	for si := len(segLSNs) - 1; si >= keepSeg; si-- {
		name := walName(segLSNs[si])
		path := join(s.dir, name)
		// An unreadable length counts as nothing to cut, as a file already
		// at or below the boundary does.
		size, _ := s.fs.Size(path)
		if si > keepSeg {
			info.TruncatedBytes += size
			if err := s.fs.Remove(path); err != nil {
				return fmt.Errorf("store: removing %s: %w", name, err)
			}
		} else if size > keepOff {
			info.TruncatedBytes += size - keepOff
			if err := s.fs.Truncate(path, keepOff); err != nil {
				return fmt.Errorf("store: truncating %s: %w", name, err)
			}
		}
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
	if len(s.stickyDest) > 0 {
		// Follower role: replicated frames are appended verbatim, so the
		// fresh segment cannot re-log a recDest without consuming an LSN.
		// Record the sticky dest vector in the header instead, keeping
		// the segment self-contained for replay.
		hdr = newSegmentHeaderDest(s.stickyDest)
	}
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

// Failed reports whether the write path is poisoned.
func (s *Store) Failed() bool { return s.failed != nil }

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
	s.commitsSinceSync = 0
	s.failed = nil
	s.retrySync = false
	return s.finishCommit()
}

// retrySyncLadder is the one back-off loop around RetrySync. err is what
// an operation just returned; while it left the store retryably
// poisoned and attempts remain, the ladder sleeps base<<attempt,
// re-issues the fsync and, once it lands, lets resume finish the
// operation (nil when the interrupted commit was all that was left).
// It returns the attempts made and the operation's final error: only an
// exhausted ladder or a non-retryable failure (torn write, crash,
// rejected input) leaves the store poisoned.
func (s *Store) retrySyncLadder(err error, attempts int, base time.Duration, resume func() error) (int, error) {
	tried := 0
	for ; err != nil && tried < attempts && s.CanRetrySync(); tried++ {
		time.Sleep(base << tried)
		if s.RetrySync() == nil {
			err = nil
			if resume != nil {
				err = resume()
			}
		}
	}
	return tried, err
}

// Composite exposes the live in-memory composite. Mutate it only
// through the store, or the log diverges from the state.
func (s *Store) Composite() *composite.Composite { return s.comp }

// LSN returns the LSN of the most recently appended frame.
func (s *Store) LSN() uint64 { return s.nextLSN - 1 }

// CommittedLSN returns the LSN of the newest durably committed frame —
// the replication watermark. Unlike every other accessor it is safe to
// call from any goroutine.
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
// in one append; the batch is acked once Commit returns nil. Fsync
// cadence follows Options.SyncEvery. A no-op with nothing pending.
func (s *Store) Commit() error { return s.commit(true) }

func (s *Store) commit(allowSnap bool) error {
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
	if allowSnap && s.opts.SnapshotEvery > 0 && s.mutsSinceSnap >= s.opts.SnapshotEvery {
		return s.Snapshot()
	}
	return nil
}

// flush is the one commit: everything pending — a batch ending in its
// commit marker, whether the leader framed it or a follower copied it —
// goes to the log in a single append, is fsynced per SyncEvery, and only
// then becomes visible through finishCommit.
func (s *Store) flush() error {
	if _, err := s.seg.Write(s.pending); err != nil {
		return s.fail(fmt.Errorf("store: appending commit batch: %w", err))
	}
	s.commitsSinceSync++
	if s.commitsSinceSync >= max(1, s.opts.SyncEvery) {
		if err := s.seg.Sync(); err != nil {
			// The batch (commit frame included) is already in the file;
			// only the fsync failed, so the commit can be completed by
			// RetrySync. pending/committed are deliberately left alone:
			// finishCommit runs from there on success.
			s.retrySync = true
			return s.fail(fmt.Errorf("store: syncing log: %w", err))
		}
		s.commitsSinceSync = 0
	}
	return s.finishCommit()
}

// finishCommit is the bookkeeping of a batch that just became durable:
// count it, drop the pending bytes, fold what a follower staged for it
// into the composite, and only then advance the watermark readers and
// replication see.
func (s *Store) finishCommit() error {
	s.committed += int64(s.pendingMuts)
	s.mutsSinceSnap += s.pendingMuts
	s.pending = s.pending[:0]
	s.pendingMuts = 0
	if _, err := s.foldStaged(); err != nil {
		return s.fail(fmt.Errorf("store: %w", err))
	}
	s.commitLSN.Store(s.nextLSN - 1)
	return nil
}

// Snapshot commits anything pending, persists the full composite via
// an fsynced temp file plus atomic rename, rotates to a fresh WAL
// segment, and compacts: covered segments and all but one older
// snapshot are deleted.
func (s *Store) Snapshot() error {
	if err := s.commit(false); err != nil {
		return err
	}
	return s.reseat("snapshot", s.comp, nil, s.nextLSN-1)
}

// ReplaceComposite durably replaces the live composite with c — the
// maintenance plane's promotion/rollback primitive. The pending batch
// is committed and synced, the active segment closed, and c persisted
// as a full snapshot (temp file + fsync + atomic rename) before a
// fresh WAL segment opens — so a crash at any byte recovers either the
// previous committed state (rename not yet visible) or exactly c, and
// every update wave after a nil return cuts its epochs from c's
// lineage. The store owns c from then on; the caller must stop
// mutating it. Shape mismatches are rejected before any disk write and
// do not poison the store; disk failures do, like any other write-path
// error, and leave the in-memory composite on the previous state so it
// keeps matching the durable prefix a reopen recovers.
func (s *Store) ReplaceComposite(c *composite.Composite) error {
	if err := s.ready(); err != nil {
		return err
	}
	if c.K() != s.comp.K() || c.N() != s.comp.N() {
		return fmt.Errorf("store: replacement shape (n=%d,k=%d) does not match store (n=%d,k=%d)",
			c.N(), c.K(), s.comp.N(), s.comp.K())
	}
	if c.Partition(0).Graph().NumVertices() != s.g.NumVertices() {
		return fmt.Errorf("store: replacement covers %d vertices, store has %d",
			c.Partition(0).Graph().NumVertices(), s.g.NumVertices())
	}
	if err := s.commit(false); err != nil {
		return err
	}
	return s.reseat("replace", c, nil, s.nextLSN-1)
}

// seal is the one end of an active segment: fsync it, close it. A
// failed fsync poisons retryably (the file is still open and intact); a
// failed close does not.
func (s *Store) seal(before string) error {
	if err := s.seg.Sync(); err != nil {
		s.retrySync = true
		return s.fail(fmt.Errorf("store: syncing log before %s: %w", before, err))
	}
	s.commitsSinceSync = 0
	err := s.seg.Close()
	s.seg = nil
	if err != nil {
		return s.fail(fmt.Errorf("store: closing segment: %w", err))
	}
	return nil
}

// rebase makes (comp, lsn) the store's durable base: the snapshot is
// persisted, and only once it is visible does the store adopt comp, move
// the watermark to lsn and open a fresh segment at lsn+1. data is comp
// already encoded (a leader's snapshot bytes, kept verbatim) or nil to
// encode it here.
func (s *Store) rebase(comp *composite.Composite, data []byte, lsn uint64) error {
	if data == nil {
		// Encode in memory first: the snapshot lands in one Write call, so
		// injected write faults hit whole-snapshot boundaries and the op
		// count stays deterministic for the fault schedules.
		var buf bytes.Buffer
		if err := composite.Write(&buf, comp); err != nil {
			return s.fail(fmt.Errorf("store: encoding snapshot: %w", err))
		}
		data = buf.Bytes()
	}
	if err := s.persistSnapshot(data, lsn); err != nil {
		return s.fail(err)
	}
	s.comp, s.snapLSN, s.nextLSN, s.mutsSinceSnap = comp, lsn, lsn+1, 0
	if err := s.openSegment(); err != nil {
		return err
	}
	s.commitLSN.Store(lsn)
	return nil
}

// reseat is the one segment rotation under a new base: seal the active
// segment, rebase onto (comp, lsn), compact what the new snapshot
// covers.
func (s *Store) reseat(before string, comp *composite.Composite, data []byte, lsn uint64) error {
	if err := s.seal(before); err != nil {
		return err
	}
	if err := s.rebase(comp, data, lsn); err != nil {
		return err
	}
	s.compact()
	return nil
}

// compact removes WAL segments covered by the newest snapshot and all
// but one older snapshot (kept as a bitrot fallback). Advisory: a
// failed listing just leaves garbage for the next compaction.
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
	var old []uint64
	for _, lsn := range snaps {
		if lsn < s.snapLSN {
			old = append(old, lsn)
		}
	}
	for i := 0; i+1 < len(old); i++ {
		_ = s.fs.Remove(join(s.dir, snapName(old[i])))
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
