package replica

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"adp/internal/graph"
	"adp/internal/store"
)

// Conn is one follower→leader request/response channel. Pull sends one
// message and waits for one reply (which, over a chaotic link, may be
// a stale reply to an earlier request — the apply path is idempotent,
// so correlation is not required).
type Conn interface {
	Pull(ctx context.Context, req *Message) (*Message, error)
	Close() error
}

// Dialer opens a fresh Conn to the leader.
type Dialer func(ctx context.Context) (Conn, error)

// Applier is where pulled history lands: a bare store (StoreApplier)
// or a serving daemon routing through its apply loop (the serve
// package's replication API).
type Applier interface {
	// ApplyFrames ingests leader frames idempotently and returns the new
	// durably-applied LSN plus how many commit boundaries landed.
	ApplyFrames(frames []store.RawFrame) (applied uint64, commits int, err error)
	// InstallSnapshot replaces local state with a leader snapshot.
	InstallSnapshot(data []byte, lsn uint64) (applied uint64, err error)
	// Promote fences the log (abort staged state, fresh segment) so the
	// node can start accepting writes.
	Promote() error
	// AppliedLSN is the durably-applied watermark.
	AppliedLSN() uint64
}

// ErrPromoted is returned by Run when the follower promoted itself
// (lease expiry) and stopped pulling.
var ErrPromoted = errors.New("replica: follower promoted to leader")

// FollowerConfig tunes the pull pump.
type FollowerConfig struct {
	// ID identifies this follower in the leader's watermark table.
	ID string
	// Dial opens connections to the leader. Required.
	Dial Dialer
	// PullTimeout bounds one Pull round trip (default 1s).
	PullTimeout time.Duration
	// PollInterval is the idle wait when caught up (default 20ms).
	PollInterval time.Duration
	// BackoffBase/BackoffCap bound the full-jitter reconnect backoff
	// (defaults 10ms / 1s): sleep = U(0, min(cap, base<<attempt)).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Seed drives the jitter; runs with the same seed and the same
	// fault schedule back off identically.
	Seed int64
	// MaxFrames caps frames requested per pull (default 4096).
	MaxFrames int
	// Lease, when positive, auto-promotes the follower once no pull has
	// succeeded for this long — the in-process leader-loss failover used
	// by tests; production promotions are operator-triggered.
	Lease time.Duration
	// Logf receives pump diagnostics; nil discards them.
	Logf func(format string, args ...any)
	// OnApplied, when non-nil, observes every watermark advance (bench
	// hook for replication-lag measurement).
	OnApplied func(lsn uint64)
}

func (c FollowerConfig) pullTimeout() time.Duration {
	if c.PullTimeout <= 0 {
		return time.Second
	}
	return c.PullTimeout
}

func (c FollowerConfig) pollInterval() time.Duration {
	if c.PollInterval <= 0 {
		return 20 * time.Millisecond
	}
	return c.PollInterval
}

func (c FollowerConfig) backoffBase() time.Duration {
	if c.BackoffBase <= 0 {
		return 10 * time.Millisecond
	}
	return c.BackoffBase
}

func (c FollowerConfig) backoffCap() time.Duration {
	if c.BackoffCap <= 0 {
		return time.Second
	}
	return c.BackoffCap
}

func (c FollowerConfig) maxFrames() int {
	if c.MaxFrames <= 0 {
		return 4096
	}
	return c.MaxFrames
}

func (c FollowerConfig) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// FollowerStats is a point-in-time snapshot of the pump's counters.
type FollowerStats struct {
	Applied         uint64 `json:"applied_lsn"`
	LeaderCommitted uint64 `json:"leader_committed_lsn"`
	Lag             uint64 `json:"lag_frames"`
	Pulls           int64  `json:"pulls"`
	PullErrors      int64  `json:"pull_errors"`
	Frames          int64  `json:"frames_received"`
	Snapshots       int64  `json:"snapshots_installed"`
	Promoted        bool   `json:"promoted"`
	// LastPullAgeMs is the time since the last successful pull
	// (negative when none succeeded yet).
	LastPullAgeMs float64 `json:"last_pull_age_ms"`
}

// Follower pulls committed frames from its own durable watermark,
// applies them through an Applier, and resumes from that watermark
// across every drop, duplicate, reorder, delay or reconnect — pulling
// from the durable LSN is what makes the whole protocol idempotent.
type Follower struct {
	applier Applier
	cfg     FollowerConfig

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
	once   sync.Once

	pulls           atomic.Int64
	pullErrors      atomic.Int64
	frames          atomic.Int64
	snapshots       atomic.Int64
	leaderCommitted atomic.Uint64
	lastOK          atomic.Int64 // unixnano of last successful pull
	runErr          atomic.Pointer[error]
	// promoteMu serialises promotion attempts; promoted flips only
	// after applier.Promote has succeeded, so a failed attempt can be
	// retried and Promoted() never runs ahead of the node's state.
	promoteMu sync.Mutex
	promoted  atomic.Bool
}

// NewFollower builds a pump; Start (or Run) begins pulling.
func NewFollower(applier Applier, cfg FollowerConfig) *Follower {
	ctx, cancel := context.WithCancel(context.Background())
	return &Follower{
		applier: applier,
		cfg:     cfg,
		ctx:     ctx,
		cancel:  cancel,
		done:    make(chan struct{}),
	}
}

// Start runs the pump in a goroutine; Stop (or Promote) ends it.
func (f *Follower) Start() {
	f.once.Do(func() {
		go func() {
			defer close(f.done)
			err := f.Run(f.ctx)
			if err != nil && !errors.Is(err, context.Canceled) {
				f.runErr.Store(&err)
				if !errors.Is(err, ErrPromoted) {
					f.cfg.logf("replica: follower %s stopped: %v", f.cfg.ID, err)
				}
			}
		}()
	})
}

// Stop cancels the pump and waits for it to exit.
func (f *Follower) Stop() {
	f.cancel()
	f.once.Do(func() { close(f.done) }) // never started
	<-f.done
}

// Err reports why the pump stopped (nil while running or after a clean
// cancel).
func (f *Follower) Err() error {
	if p := f.runErr.Load(); p != nil {
		return *p
	}
	return nil
}

// Promote stops the pump, fences the log and flips the node writable —
// the operator-triggered failover path. Safe to call on an
// auto-promoted follower (idempotent).
func (f *Follower) Promote() error {
	f.Stop()
	return f.promote(nil)
}

// promote fences the log and flips the node writable, once. stopErr,
// when non-nil, is why the pump is stopping: it is stored before the
// flag, so whoever observes Promoted() also observes Err().
func (f *Follower) promote(stopErr error) error {
	f.promoteMu.Lock()
	defer f.promoteMu.Unlock()
	if f.promoted.Load() {
		return nil
	}
	if err := f.applier.Promote(); err != nil {
		return err
	}
	if stopErr != nil {
		f.runErr.Store(&stopErr)
	}
	f.promoted.Store(true)
	return nil
}

// Promoted reports whether this node has been promoted.
func (f *Follower) Promoted() bool { return f.promoted.Load() }

// Applied returns the durably-applied watermark.
func (f *Follower) Applied() uint64 { return f.applier.AppliedLSN() }

// Stats snapshots the pump counters.
func (f *Follower) Stats() FollowerStats {
	st := FollowerStats{
		Applied:         f.applier.AppliedLSN(),
		LeaderCommitted: f.leaderCommitted.Load(),
		Pulls:           f.pulls.Load(),
		PullErrors:      f.pullErrors.Load(),
		Frames:          f.frames.Load(),
		Snapshots:       f.snapshots.Load(),
		Promoted:        f.promoted.Load(),
		LastPullAgeMs:   -1,
	}
	if st.LeaderCommitted > st.Applied {
		st.Lag = st.LeaderCommitted - st.Applied
	}
	if t := f.lastOK.Load(); t > 0 {
		st.LastPullAgeMs = float64(time.Since(time.Unix(0, t))) / float64(time.Millisecond)
	}
	return st
}

// Run is the pull pump: dial, pull from the durable watermark, apply,
// repeat; on any transport error, reconnect with full-jitter backoff
// and re-request from the watermark. Returns ErrPromoted after a lease
// expiry, ctx.Err() on cancel, or the fatal apply/divergence error.
func (f *Follower) Run(ctx context.Context) error {
	rng := rand.New(rand.NewSource(f.cfg.Seed))
	f.lastOK.Store(time.Now().UnixNano())
	var conn Conn
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	attempt := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if f.leaseExpired() {
			return f.autoPromote()
		}
		if conn == nil {
			c, err := f.cfg.Dial(ctx)
			if err != nil {
				f.pullErrors.Add(1)
				if !f.backoff(ctx, rng, &attempt) {
					return ctx.Err()
				}
				continue
			}
			conn = c
		}
		req := &Message{
			Type:    MsgPull,
			Applied: f.applier.AppliedLSN(),
			Max:     uint32(f.cfg.maxFrames()),
			ID:      f.cfg.ID,
		}
		pctx, cancel := context.WithTimeout(ctx, f.cfg.pullTimeout())
		resp, err := conn.Pull(pctx, req)
		cancel()
		if err != nil {
			f.pullErrors.Add(1)
			conn.Close()
			conn = nil
			if !f.backoff(ctx, rng, &attempt) {
				return ctx.Err()
			}
			continue
		}
		attempt = 0
		f.pulls.Add(1)
		f.lastOK.Store(time.Now().UnixNano())
		progressed, fatal, cerr := f.consume(resp)
		if cerr != nil {
			if fatal {
				return cerr
			}
			f.cfg.logf("replica: follower %s: %v", f.cfg.ID, cerr)
			conn.Close()
			conn = nil
			if !f.backoff(ctx, rng, &attempt) {
				return ctx.Err()
			}
			continue
		}
		if !progressed {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(f.cfg.pollInterval()):
			}
		}
	}
}

// consume folds one reply into the applier. fatal marks errors the
// pump cannot retry past (divergence, a poisoned store).
func (f *Follower) consume(resp *Message) (progressed, fatal bool, err error) {
	switch resp.Type {
	case MsgFrames:
		f.leaderCommitted.Store(resp.Committed)
		if len(resp.Frames) == 0 {
			return false, false, nil
		}
		f.frames.Add(int64(len(resp.Frames)))
		before := f.applier.AppliedLSN()
		applied, _, aerr := f.applier.ApplyFrames(resp.Frames)
		if applied > before {
			f.notifyApplied(applied)
		}
		if aerr != nil {
			var gap *store.GapError
			if errors.As(aerr, &gap) {
				// A reordered or duplicated delivery left a hole; the next
				// pull re-requests from the durable watermark.
				return applied > before, false, nil
			}
			return false, true, aerr
		}
		return true, false, nil
	case MsgSnapshot:
		if resp.SnapLSN <= f.applier.AppliedLSN() {
			// Raced a concurrent catch-up; nothing to install.
			return false, false, nil
		}
		applied, aerr := f.applier.InstallSnapshot(resp.Snapshot, resp.SnapLSN)
		if aerr != nil {
			return false, true, fmt.Errorf("replica: installing snapshot at lsn %d: %w", resp.SnapLSN, aerr)
		}
		f.snapshots.Add(1)
		f.notifyApplied(applied)
		return true, false, nil
	case MsgError:
		if resp.ErrCode == ErrCodeDiverged {
			return false, true, fmt.Errorf("%w (%s)", ErrDiverged, resp.ErrMsg)
		}
		return false, false, fmt.Errorf("replica: leader error %d: %s", resp.ErrCode, resp.ErrMsg)
	default:
		return false, false, fmt.Errorf("replica: unexpected reply type %s", resp.Type)
	}
}

func (f *Follower) notifyApplied(lsn uint64) {
	if f.cfg.OnApplied != nil {
		f.cfg.OnApplied(lsn)
	}
}

// backoff sleeps a full-jitter interval; false means ctx ended.
func (f *Follower) backoff(ctx context.Context, rng *rand.Rand, attempt *int) bool {
	max := f.cfg.backoffBase() << uint(*attempt)
	if max > f.cfg.backoffCap() || max <= 0 {
		max = f.cfg.backoffCap()
	}
	if *attempt < 30 {
		*attempt++
	}
	d := time.Duration(rng.Int63n(int64(max) + 1))
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}

func (f *Follower) leaseExpired() bool {
	if f.cfg.Lease <= 0 {
		return false
	}
	return time.Since(time.Unix(0, f.lastOK.Load())) > f.cfg.Lease
}

func (f *Follower) autoPromote() error {
	if f.promoted.Load() {
		return ErrPromoted
	}
	f.cfg.logf("replica: follower %s lease expired (no pull for %s); promoting", f.cfg.ID, f.cfg.Lease)
	if err := f.promote(ErrPromoted); err != nil {
		return fmt.Errorf("replica: lease promotion: %w", err)
	}
	return ErrPromoted
}

// StoreApplier applies pulled history straight into a bare store — the
// pump goroutine is the store's single writer. Commit-time fsync
// failures go through the store's retry ladder, as on the serving
// plane.
type StoreApplier struct {
	St *store.Store
}

// ApplyFrames ingests frames, retrying a failed commit fsync up to 3
// times from a 1ms backoff.
func (a *StoreApplier) ApplyFrames(frames []store.RawFrame) (uint64, int, error) {
	commits, _, err := a.St.AppendReplicatedRetrying(frames, 3, time.Millisecond)
	return a.St.CommittedLSN(), commits, err
}

// InstallSnapshot replaces local state with a leader snapshot.
func (a *StoreApplier) InstallSnapshot(data []byte, lsn uint64) (uint64, error) {
	err := a.St.InstallSnapshot(data, lsn)
	return a.St.CommittedLSN(), err
}

// Promote fences the log for leadership.
func (a *StoreApplier) Promote() error {
	a.St.AbortReplicated()
	return a.St.RotateSegment()
}

// AppliedLSN is the durable watermark.
func (a *StoreApplier) AppliedLSN() uint64 { return a.St.CommittedLSN() }

// Bootstrap fetches the leader's newest snapshot and initialises dir
// as a follower store resuming at that snapshot's LSN.
func Bootstrap(ctx context.Context, dial Dialer, dir string, g *graph.Graph, opts store.Options) (*store.Store, error) {
	conn, err := dial(ctx)
	if err != nil {
		return nil, fmt.Errorf("replica: bootstrap dial: %w", err)
	}
	defer conn.Close()
	resp, err := conn.Pull(ctx, &Message{Type: MsgSnapReq})
	if err != nil {
		return nil, fmt.Errorf("replica: bootstrap snapshot request: %w", err)
	}
	switch resp.Type {
	case MsgSnapshot:
	case MsgError:
		return nil, fmt.Errorf("replica: bootstrap refused: %s", resp.ErrMsg)
	default:
		return nil, fmt.Errorf("replica: bootstrap got %s, want snapshot", resp.Type)
	}
	return store.CreateReplica(dir, g, resp.Snapshot, resp.SnapLSN, opts)
}
