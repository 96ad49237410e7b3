package store

import (
	"bytes"
	"fmt"
	"time"

	"adp/internal/composite"
	"adp/internal/graph"
)

// Follower-role store primitives for WAL-shipping replication
// (internal/replica). A follower appends the leader's frames verbatim
// — same LSNs, same payload bytes — so the two logs describe one
// shared LSN space and idempotence reduces to an LSN comparison.
// Frames go through the same interpret → flush → foldStaged path as
// recovery (store.go): mutations are staged in memory and folded into
// the composite only when their commit marker is durably on disk, so
// the follower's disk always holds a committed prefix of the leader's
// history, no matter where the stream dies.

// CreateReplica initialises dir (created if missing, must not already
// hold a store) as a follower bootstrapped from a leader snapshot: the
// raw snapshot bytes are persisted verbatim at snapLSN — bit-identical
// to the leader's file — and replication resumes at snapLSN+1.
func CreateReplica(dir string, g *graph.Graph, snap []byte, snapLSN uint64, opts Options) (*Store, error) {
	fs, err := newStoreDir(dir, opts)
	if err != nil {
		return nil, err
	}
	comp, err := composite.Read(bytes.NewReader(snap), g)
	if err != nil {
		return nil, fmt.Errorf("store: decoding leader snapshot: %w", err)
	}
	s := &Store{dir: dir, fs: fs, opts: opts, g: g}
	if err := s.rebase(comp, snap, snapLSN); err != nil {
		return nil, err
	}
	return s, nil
}

// AppendReplicated ingests a run of leader frames. Frames at or below
// the follower's next LSN are idempotent no-ops (duplicates from
// resumes, retries or reordered deliveries); a frame beyond it returns
// a *GapError without disturbing staged state — the caller re-requests
// from CommittedLSN()+1 and the staged prefix deduplicates itself.
// Mutations reach the composite and the commit watermark only when
// their commit marker is durably appended. Returns how many commit
// boundaries landed.
func (s *Store) AppendReplicated(frames []RawFrame) (commits int, err error) {
	if err := s.ready(); err != nil {
		return 0, err
	}
	for _, f := range frames {
		if f.LSN < s.nextLSN {
			continue // already durable or already staged
		}
		if f.LSN > s.nextLSN {
			return commits, &GapError{Want: s.nextLSN, Got: f.LSN}
		}
		kind := recKind(f.Kind)
		if err := s.interpret(f.LSN, kind, f.Body); err != nil {
			return commits, s.fail(fmt.Errorf("store: replicated frame %d: %w", f.LSN, err))
		}
		s.pendingMuts = len(s.staged)
		s.pending = appendFrame(s.pending, f.LSN, kind, f.Body)
		s.nextLSN = f.LSN + 1
		if kind == recCommit {
			// Same commit as the leader's: one append of every frame since
			// the last boundary, fsync per SyncEvery (a failed fsync poisons
			// retryably), and only then the fold and the watermark.
			if err := s.flush(); err != nil {
				return commits, err
			}
			commits++
		}
	}
	// Compact only on a commit boundary: a dest-only partial batch still
	// has pending bytes, and Snapshot's implicit commit would mint a
	// commit frame at an LSN the leader owns.
	if s.opts.SnapshotEvery > 0 && s.mutsSinceSnap >= s.opts.SnapshotEvery &&
		len(s.pending) == 0 && len(s.staged) == 0 {
		if err := s.Snapshot(); err != nil {
			return commits, err
		}
	}
	return commits, nil
}

// AppendReplicatedRetrying is AppendReplicated under the fsync retry
// ladder (see ApplyRetrying), and also reports the retries made.
// Re-feeding the full slice once a retry lands is safe: the completed
// commit advanced the next LSN, so its frames are skipped and only the
// unprocessed tail applies.
func (s *Store) AppendReplicatedRetrying(frames []RawFrame, attempts int, base time.Duration) (commits, retries int, err error) {
	commits, err = s.AppendReplicated(frames)
	retries, err = s.retrySyncLadder(err, attempts, base, func() error {
		commits++ // the commit RetrySync completed
		more, err := s.AppendReplicated(frames)
		commits += more
		return err
	})
	return commits, retries, err
}

// AbortReplicated discards staged-but-uncommitted replicated state
// after a stream break: in-memory only (nothing of the partial batch
// has touched disk or the composite), rewinding the next expected LSN
// to just past the durable watermark. Poison is untouched.
func (s *Store) AbortReplicated() {
	s.pending = s.pending[:0]
	s.pendingMuts = 0
	s.staged = s.staged[:0]
	s.nextLSN = s.commitLSN.Load() + 1
}

// RotateSegment syncs and closes the active segment and opens a fresh
// one at the next LSN — the promotion step that fences a follower's
// log before it starts accepting its own writes. The caller must have
// no pending batch (call AbortReplicated first on a follower).
func (s *Store) RotateSegment() error {
	if err := s.ready(); err != nil {
		return err
	}
	if len(s.pending) > 0 || len(s.staged) > 0 {
		return fmt.Errorf("store: rotate with %d pending bytes; abort or commit first", len(s.pending))
	}
	if err := s.seal("rotate"); err != nil {
		return err
	}
	return s.openSegment()
}

// InstallSnapshot replaces the follower's state with a leader snapshot
// taken beyond the follower's position — the catch-up path when the
// leader compacted the frames the follower still needed. The snapshot
// bytes are persisted verbatim, the composite swapped, the log
// re-based at lsn+1 and old segments compacted away. Staged state is
// discarded.
func (s *Store) InstallSnapshot(data []byte, lsn uint64) error {
	if err := s.ready(); err != nil {
		return err
	}
	if lsn <= s.commitLSN.Load() {
		return fmt.Errorf("store: snapshot at lsn %d does not advance the watermark (%d)", lsn, s.commitLSN.Load())
	}
	comp, err := composite.Read(bytes.NewReader(data), s.g)
	if err != nil {
		return fmt.Errorf("store: decoding leader snapshot: %w", err)
	}
	s.AbortReplicated()
	s.stickyDest = nil
	return s.reseat("snapshot install", comp, data, lsn)
}
