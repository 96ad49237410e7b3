package store

import (
	"errors"
	"fmt"
)

// Segment tailing: the replication leader reads committed WAL frames
// back out of the store directory to ship them to followers. TailFrom
// and NewestSnapshot touch only immutable Store fields (dir, fs) plus
// the commitLSN watermark, so — unlike every other Store method — they
// are safe to call from any goroutine while the single writer appends.
// Frames past the watermark are never returned, which also makes torn
// tails from a racing append invisible: a frame below the watermark was
// durably synced before the watermark advanced.

// RawFrame is one WAL frame in transportable form: the exact LSN, kind
// and body bytes of the leader's frame. Re-appending it through
// appendFrame reproduces the leader's frame bit-for-bit (the CRC covers
// the payload only), so follower logs stay bitwise-identical to the
// leader's committed prefix.
type RawFrame struct {
	LSN  uint64
	Kind uint8
	Body []byte
}

// ErrCompacted reports that the requested tail start has been compacted
// out of the log; the follower must re-bootstrap from a snapshot.
var ErrCompacted = errors.New("store: requested frames compacted away; bootstrap from snapshot")

// GapError reports a replicated frame that does not extend the
// follower's log contiguously — the stream skipped frames (reordering
// beyond the staging window, or a lost message) and the follower must
// re-request from its durable watermark.
type GapError struct {
	Want, Got uint64
}

func (e *GapError) Error() string {
	return fmt.Sprintf("store: replicated frame gap (want lsn %d, got %d)", e.Want, e.Got)
}

// TailFrom returns committed frames starting at LSN from, in LSN
// order, plus the current committed watermark. max is a soft cap: the
// response extends past it to the commit frame closing the final batch,
// so a follower that pulls from its durable watermark (which advances
// only at commit boundaries) always receives at least one complete
// batch and makes progress no matter how max relates to batch sizes.
// A from beyond the watermark returns no frames (the caller is caught
// up). A from below the start of the retained log returns ErrCompacted.
// Safe for concurrent use with the writing goroutine.
func (s *Store) TailFrom(from uint64, max int) ([]RawFrame, uint64, error) {
	committed := s.commitLSN.Load()
	if from == 0 {
		from = 1
	}
	if max <= 0 {
		max = 1 << 12
	}
	if from > committed {
		return nil, committed, nil
	}
	_, segLSNs, err := storeFiles(s.fs, s.dir)
	if err != nil {
		return nil, committed, fmt.Errorf("store: listing segments: %w", err)
	}
	if len(segLSNs) == 0 || segLSNs[0] > from {
		return nil, committed, ErrCompacted
	}
	// First segment that can contain `from`: the last one starting at or
	// below it.
	start := 0
	for i, lsn := range segLSNs {
		if lsn <= from {
			start = i
		}
	}
	var out []RawFrame
	// full only once the cap is met AND the run ends on a commit frame;
	// the frame at the watermark is always a commit, so this terminates.
	full := func() bool {
		return len(out) >= max && recKind(out[len(out)-1].Kind) == recCommit
	}
	for si := start; si < len(segLSNs) && !full(); si++ {
		segStart := segLSNs[si]
		if segStart > committed {
			break
		}
		data, rerr := s.fs.ReadFile(join(s.dir, walName(segStart)))
		if rerr != nil {
			// Compaction raced the listing and removed the segment. If we
			// already collected frames the caller can make progress;
			// otherwise the tail start is gone.
			if len(out) > 0 {
				return out, committed, nil
			}
			return nil, committed, ErrCompacted
		}
		frames, _, serr := scanSegment(data, segStart)
		if serr != nil {
			if len(out) > 0 {
				return out, committed, nil
			}
			return nil, committed, fmt.Errorf("store: tailing %s: %w", walName(segStart), serr)
		}
		// Damage past the watermark is a racing append's torn tail and is
		// ignored; below the watermark it would have failed the original
		// commit, so frames up to `committed` are always intact.
		for _, f := range frames {
			if f.lsn > committed || full() {
				break
			}
			if f.lsn < from {
				continue
			}
			out = append(out, RawFrame{LSN: f.lsn, Kind: uint8(f.kind), Body: append([]byte(nil), f.body...)})
		}
	}
	if len(out) == 0 {
		// The log listing covered `from` but the bytes did not (e.g. the
		// covering segment was compacted and recreated above `from`).
		return nil, committed, ErrCompacted
	}
	if out[0].LSN != from {
		return nil, committed, ErrCompacted
	}
	return out, committed, nil
}

// NewestSnapshot returns the raw bytes and covered LSN of the newest
// snapshot file — the bootstrap payload for a follower whose applied
// LSN predates the retained log. Safe for concurrent use with the
// writing goroutine (snapshot files are published atomically and the
// newest is never removed).
func (s *Store) NewestSnapshot() (uint64, []byte, error) {
	for attempt := 0; ; attempt++ {
		snaps, _, err := storeFiles(s.fs, s.dir)
		if err != nil {
			return 0, nil, fmt.Errorf("store: listing snapshots: %w", err)
		}
		if len(snaps) == 0 {
			return 0, nil, fmt.Errorf("store: %s holds no snapshot", s.dir)
		}
		best := snaps[len(snaps)-1]
		data, err := s.fs.ReadFile(join(s.dir, snapName(best)))
		if err == nil {
			return best, data, nil
		}
		// A newer snapshot replaced this one between List and ReadFile;
		// retry against the fresh listing.
		if attempt >= 3 {
			return 0, nil, fmt.Errorf("store: reading snapshot %s: %w", snapName(best), err)
		}
	}
}

// WalStats summarises the on-disk log for /metrics. Safe for
// concurrent use with the writing goroutine; sizes are advisory (a
// racing append or compaction skews them by at most one segment).
type WalStats struct {
	CommittedLSN  uint64 `json:"committed_lsn"`
	Segments      int    `json:"segments"`
	Bytes         int64  `json:"bytes"`
	Snapshots     int    `json:"snapshots"`
	SnapshotLSN   uint64 `json:"snapshot_lsn"`
	SnapshotBytes int64  `json:"snapshot_bytes"`
}

// WalStats reports the committed watermark and the on-disk footprint of
// the log and snapshots.
func (s *Store) WalStats() WalStats {
	st := WalStats{CommittedLSN: s.commitLSN.Load()}
	snaps, segs, err := storeFiles(s.fs, s.dir)
	if err != nil {
		return st
	}
	st.Snapshots, st.Segments = len(snaps), len(segs)
	// A file a racing compaction removed reads as size 0.
	for _, lsn := range snaps {
		st.SnapshotLSN = lsn
		sz, _ := s.fs.Size(join(s.dir, snapName(lsn)))
		st.SnapshotBytes += sz
	}
	for _, lsn := range segs {
		sz, _ := s.fs.Size(join(s.dir, walName(lsn)))
		st.Bytes += sz
	}
	return st
}
