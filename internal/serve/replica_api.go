package serve

import (
	"errors"
	"fmt"

	"adp/internal/store"
)

// The replication-facing surface of the server. A follower process runs
// the serving plane in read-only mode: the replica pump (internal/
// replica.Follower) is a *client* of this surface, handing pulled WAL
// frames, bootstrap snapshots and the promotion order to the apply loop
// — the single writer — exactly like update batches and maintenance
// swaps. Everything that must be serialized with epoch publishes (the
// durable append, the composite fold, the watermark advance) happens
// inside the apply loop, so readers never see a half-applied batch and
// min_lsn reads never observe a torn epoch.
//
// This package deliberately does not import internal/replica (replica's
// serve adapter imports serve); the wiring — dialer, pump, status
// provider — lives in the process (cmd/adserve) or the test harness.

// ErrNotFollower rejects replication traffic on a leader.
var ErrNotFollower = errors.New("serve: not in follower mode")

// ErrNotLeader is the class behind rejected follower writes.
var ErrNotLeader = errors.New("serve: follower is read-only; write to the leader")

// ReplStatus is the replication /metrics block, registered by the
// process wiring via SetReplStatusFunc (the serve package has no import
// of internal/replica, so the concrete stats are mapped in by the
// caller).
type ReplStatus struct {
	Role               string            `json:"role"` // "leader" | "follower"
	AppliedLSN         uint64            `json:"applied_lsn"`
	LeaderCommittedLSN uint64            `json:"leader_committed_lsn,omitempty"`
	LagFrames          uint64            `json:"lag_frames"`
	Pulls              int64             `json:"pulls,omitempty"`
	PullErrors         int64             `json:"pull_errors,omitempty"`
	FramesReceived     int64             `json:"frames_received,omitempty"`
	SnapshotsInstalled int64             `json:"snapshots_installed,omitempty"`
	Promoted           bool              `json:"promoted,omitempty"`
	LastPullAgeMS      int64             `json:"last_pull_age_ms,omitempty"`
	Followers          map[string]uint64 `json:"followers,omitempty"` // leader side: durably-applied watermarks
}

// SetReplStatusFunc registers the provider behind the /metrics
// "replication" block. Pass nil to unregister.
func (s *Server) SetReplStatusFunc(f func() ReplStatus) {
	s.replMu.Lock()
	s.replStatusFunc = f
	s.replMu.Unlock()
}

func (s *Server) replStatusSnapshot() *ReplStatus {
	s.replMu.Lock()
	f := s.replStatusFunc
	s.replMu.Unlock()
	if f == nil {
		return nil
	}
	rs := f()
	return &rs
}

// ReadOnly reports whether the server is (still) in follower mode.
func (s *Server) ReadOnly() bool { return s.readOnly.Load() }

// AppliedLSN returns the durably-applied replication watermark — the
// staleness bound a follower advertises. Safe for concurrent use.
func (s *Server) AppliedLSN() uint64 { return s.st.CommittedLSN() }

// replReq is one replication request on its way to the apply loop:
// exactly one of frames, snapshot or promote is meaningful.
type replReq struct {
	frames   []store.RawFrame
	snapshot []byte
	snapLSN  uint64
	promote  bool
	reply    chan replRes
}

type replRes struct {
	applied uint64
	commits int
	err     error
}

// sendRepl routes one request through the apply loop, aborting cleanly
// when a drain races it (same discipline as SwapEpoch).
func (s *Server) sendRepl(rr *replReq) replRes {
	select {
	case s.repl <- rr:
	case <-s.baseCtx.Done():
		return replRes{applied: s.st.CommittedLSN(), err: fmt.Errorf("serve: draining; replication request refused")}
	}
	// The apply loop always replies (buffered channel), so this receive
	// cannot block it.
	return <-rr.reply
}

// ReplApply hands a run of pulled leader frames to the apply loop: a
// durable AppendReplicated plus an epoch publish when commit boundaries
// landed. Returns the durable watermark after the call and how many
// commits landed. A *store.GapError is soft (re-pull from AppliedLSN);
// any other error poisons the write path.
func (s *Server) ReplApply(frames []store.RawFrame) (uint64, int, error) {
	if !s.readOnly.Load() {
		return s.st.CommittedLSN(), 0, ErrNotFollower
	}
	res := s.sendRepl(&replReq{frames: frames, reply: make(chan replRes, 1)})
	return res.applied, res.commits, res.err
}

// ReplInstallSnapshot replaces the follower's state with a leader
// snapshot (the catch-up path after the leader compacted frames the
// follower still needed) and publishes the rebased epoch.
func (s *Server) ReplInstallSnapshot(data []byte, lsn uint64) (uint64, error) {
	if !s.readOnly.Load() {
		return s.st.CommittedLSN(), ErrNotFollower
	}
	res := s.sendRepl(&replReq{snapshot: data, snapLSN: lsn, reply: make(chan replRes, 1)})
	return res.applied, res.err
}

// PromoteToLeader fails the follower over: staged-but-uncommitted
// replication state is discarded (the durable committed prefix is
// untouched), the log is fenced with a fresh segment, and the server
// leaves read-only mode — POST /updates starts accepting writes. The
// caller must have stopped the replication pump first.
func (s *Server) PromoteToLeader() error {
	if !s.readOnly.Load() {
		return ErrNotFollower
	}
	res := s.sendRepl(&replReq{promote: true, reply: make(chan replRes, 1)})
	if res.err == nil {
		s.readOnly.Store(false)
		s.logf("serve: promoted to leader at lsn %d", res.applied)
	}
	return res.err
}

// applyRepl executes one replication request (apply loop only). Frames
// run under the same store-owned fsync retry ladder as update waves; a
// *store.GapError is soft and leaves the store healthy, every other
// failure has poisoned it — finish mirrors whichever happened.
func (s *Server) applyRepl(rr *replReq) {
	res := replRes{}
	publish := false
	switch {
	case s.storeFailed.Load():
		res.err = fmt.Errorf("serve: store write path failed; restart to recover")
	case rr.promote:
		s.st.AbortReplicated()
		res.err = s.st.RotateSegment()
	case rr.snapshot != nil:
		// Validation rejections (stale or undecodable snapshots) leave
		// the store healthy; mid-install failures poison it.
		if res.err = s.st.InstallSnapshot(rr.snapshot, rr.snapLSN); res.err == nil {
			publish = true
			s.replSnapshots.Add(1)
		}
	default:
		var retries int
		res.commits, retries, res.err = s.st.AppendReplicatedRetrying(rr.frames, s.cfg.ApplyRetries, s.cfg.ApplyRetryBase)
		s.applyRetries.Add(int64(retries))
		s.replCommits.Add(int64(res.commits))
		publish = res.commits > 0
	}
	s.finish(res.err, publish)
	res.applied = s.st.CommittedLSN()
	rr.reply <- res
}
