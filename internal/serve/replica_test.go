package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"adp/internal/costmodel"
	"adp/internal/graph"
	"adp/internal/store"
)

// leaderStore builds a bare leader-side store over the standard serve
// fixture and applies n committed single-edge delete batches, so the
// WAL has real frames to ship. Returns the store and the batch count.
func leaderStore(t testing.TB, dir string, n int) (*graph.Graph, *store.Store) {
	t.Helper()
	g := serveGraph()
	st, err := store.Create(dir, serveComposite(t, g), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	applyLeaderBatches(t, g, st, n)
	return g, st
}

// applyLeaderBatches commits n one-edge toggle batches against st.
func applyLeaderBatches(t testing.TB, g *graph.Graph, st *store.Store, n int) {
	t.Helper()
	type edge struct{ u, v graph.VertexID }
	var safe []edge
	g.Edges(func(u, v graph.VertexID) bool {
		if u < v && g.OutDegree(u) > 1 && g.OutDegree(v) > 1 {
			safe = append(safe, edge{u, v})
		}
		return len(safe) < 64
	})
	for i := 0; i < n; i++ {
		e := safe[i%len(safe)]
		op := "-"
		if i%2 == 1 {
			op = "+" // re-insert what the previous batch deleted
		}
		muts, err := store.ParseUpdates(strings.NewReader(fmt.Sprintf("%s %d %d\n", op, e.u, e.v)))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := st.Apply(append(muts, store.Mutation{Kind: store.MutCommit})); err != nil {
			t.Fatal(err)
		}
	}
}

// startFollower clones a follower store from st's newest snapshot and
// serves it read-only.
func startFollower(t testing.TB, g *graph.Graph, st *store.Store, cfg Config) (*testServer, uint64) {
	t.Helper()
	lsn, snap, err := st.NewestSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir() + "/follower"
	fst, err := store.CreateReplica(dir, g, snap, lsn, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fst.Close(); err != nil {
		t.Fatal(err)
	}
	cfg.ReadOnly = true
	return startServerOn(t, dir, g, nil, cfg, store.Options{}), lsn
}

// TestFollowerServePlane drives the whole follower lifecycle through
// the HTTP surface: read-only rejection, replicated catch-up publishing
// epochs, bounded-staleness reads on /vertex and /run, replication
// metrics, and promotion to a writable leader.
func TestFollowerServePlane(t *testing.T) {
	g, st := leaderStore(t, t.TempDir()+"/leader", 6)
	ts, snapLSN := startFollower(t, g, st, Config{})

	if !ts.ReadOnly() {
		t.Fatal("follower does not report read-only")
	}
	if ts.AppliedLSN() != snapLSN {
		t.Fatalf("bootstrap applied %d, snapshot at %d", ts.AppliedLSN(), snapLSN)
	}

	// Writes bounce with the typed not-leader class (no LeaderURL set).
	if status, _, eb := ts.postUpdates(t, "+ 1 2\n"); status != http.StatusConflict || eb.Class != "not_leader" {
		t.Fatalf("follower write: status %d class %q, want 409 not_leader", status, eb.Class)
	}

	// A replication status source surfaces in /metrics.
	ts.SetReplStatusFunc(func() ReplStatus {
		return ReplStatus{Role: "follower", AppliedLSN: ts.AppliedLSN()}
	})
	m := ts.getMetrics(t)
	if !m.Server.ReadOnly {
		t.Fatal("metrics do not report read-only")
	}
	if m.Wal.CommittedLSN != snapLSN {
		t.Fatalf("metrics wal lsn %d, want %d", m.Wal.CommittedLSN, snapLSN)
	}
	if m.Replication == nil || m.Replication.Role != "follower" {
		t.Fatalf("metrics replication block %+v", m.Replication)
	}

	// Catch up through ReplApply: the leader's committed tail lands,
	// publishes an epoch, and advances the staleness bound.
	frames, leaderLSN, err := st.TailFrom(snapLSN+1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	applied, commits, err := ts.ReplApply(frames)
	if err != nil {
		t.Fatal(err)
	}
	if applied != leaderLSN || commits < 1 {
		t.Fatalf("ReplApply landed at %d (%d commits), leader at %d", applied, commits, leaderLSN)
	}
	m = ts.getMetrics(t)
	if m.EpochLSN != leaderLSN {
		t.Fatalf("epoch lsn %d after catch-up, want %d", m.EpochLSN, leaderLSN)
	}
	if m.Server.ReplCommits < 1 {
		t.Fatal("repl_commits not counted")
	}

	// Bounded staleness: a satisfied floor serves, an unsatisfied one is
	// a typed 412 naming both sides of the gap.
	var vr vertexResponse
	if status, eb := doJSON(t, "GET", fmt.Sprintf("%s/vertex/1?min_lsn=%d", ts.URL, leaderLSN), nil, &vr); status != http.StatusOK {
		t.Fatalf("fresh-enough vertex read: status %d (%v)", status, eb)
	}
	if vr.EpochLSN != leaderLSN {
		t.Fatalf("vertex epoch_lsn %d, want %d", vr.EpochLSN, leaderLSN)
	}
	status, eb := doJSON(t, "GET", fmt.Sprintf("%s/vertex/1?min_lsn=%d", ts.URL, leaderLSN+5), nil, nil)
	if status != http.StatusPreconditionFailed || eb.Class != "stale" {
		t.Fatalf("stale vertex read: status %d class %q", status, eb.Class)
	}
	if eb.MinLSN != leaderLSN+5 || eb.AppliedLSN != leaderLSN {
		t.Fatalf("stale error carries (min %d, applied %d), want (%d, %d)", eb.MinLSN, eb.AppliedLSN, leaderLSN+5, leaderLSN)
	}
	if status, eb := doJSON(t, "GET", ts.URL+"/vertex/1?min_lsn=bogus", nil, nil); status != http.StatusBadRequest || eb.Class != "bad_request" {
		t.Fatalf("bogus min_lsn: status %d class %q", status, eb.Class)
	}
	req := runReqFor(costmodel.WCC)
	req.MinLSN = leaderLSN
	if status, _, eb := ts.postRun(t, req); status != http.StatusOK {
		t.Fatalf("fresh-enough run: status %d (%v)", status, eb)
	}
	req.MinLSN = leaderLSN + 1
	if status, _, eb := ts.postRun(t, req); status != http.StatusPreconditionFailed || eb.Class != "stale" {
		t.Fatalf("stale run: status %d class %q", status, eb.Class)
	}

	// Promotion flips the node writable.
	if err := ts.PromoteToLeader(); err != nil {
		t.Fatal(err)
	}
	if ts.ReadOnly() {
		t.Fatal("promoted node still read-only")
	}
	if err := ts.PromoteToLeader(); !errors.Is(err, ErrNotFollower) {
		t.Fatalf("second promote returned %v, want ErrNotFollower", err)
	}
	if _, _, err := ts.ReplApply(frames); !errors.Is(err, ErrNotFollower) {
		t.Fatalf("ReplApply on a leader returned %v, want ErrNotFollower", err)
	}
	if status, ur, eb := ts.postUpdates(t, "- 1 2\n+ 1 2\n"); status != http.StatusOK || !ur.Durable {
		t.Fatalf("post-promotion write: status %d durable %v (%v)", status, ur.Durable, eb)
	}
	if m := ts.getMetrics(t); m.Server.ReadOnly {
		t.Fatal("metrics still read-only after promotion")
	}

	// Mirror the promoted node's write onto the old leader: starting
	// from identical state, the same stream routes identically, so the
	// drained follower directory must match the old leader exactly.
	muts, err := store.ParseUpdates(strings.NewReader("- 1 2\n+ 1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Apply(append(muts, store.Mutation{Kind: store.MutCommit})); err != nil {
		t.Fatal(err)
	}
	if err := ts.drain(); err != nil {
		t.Fatal(err)
	}
	re, info, err := store.Open(ts.Dir, g, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if info.Damage != nil {
		t.Fatalf("reopen found damage: %v", info)
	}
	if err := re.Composite().EqualState(st.Composite()); err != nil {
		t.Fatalf("promoted state diverged from leader prefix: %v", err)
	}
}

// TestFollowerSnapshotInstall covers the re-base path through the
// serving daemon: installing a leader snapshot publishes a fresh epoch
// at the snapshot's LSN.
func TestFollowerSnapshotInstall(t *testing.T) {
	g, st := leaderStore(t, t.TempDir()+"/leader", 4)
	ts, snapLSN := startFollower(t, g, st, Config{})

	// Leader moves on and snapshots past the follower.
	applyLeaderBatches(t, g, st, 4)
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	lsn, snap, err := st.NewestSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if lsn <= snapLSN {
		t.Fatalf("leader snapshot did not advance (%d <= %d)", lsn, snapLSN)
	}
	applied, err := ts.ReplInstallSnapshot(snap, lsn)
	if err != nil {
		t.Fatal(err)
	}
	if applied != lsn {
		t.Fatalf("snapshot install landed at %d, want %d", applied, lsn)
	}
	m := ts.getMetrics(t)
	if m.EpochLSN != lsn {
		t.Fatalf("epoch lsn %d after install, want %d", m.EpochLSN, lsn)
	}
	if m.Server.ReplSnapshots != 1 {
		t.Fatalf("repl_snapshots %d, want 1", m.Server.ReplSnapshots)
	}
}

// TestFollowerGapIsSoft: the apply loop's tail takes storeFailed from
// the store's own poison state, so a run of frames that skips ahead — a
// *store.GapError, which disturbs nothing — must leave the write path
// healthy and the re-pull must land; a frame the store rejects poisons
// it, and the same tail reports that.
func TestFollowerGapIsSoft(t *testing.T) {
	g, st := leaderStore(t, t.TempDir()+"/leader", 4)
	ts, snapLSN := startFollower(t, g, st, Config{})
	frames, leaderLSN, err := st.TailFrom(snapLSN+1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}

	var gap *store.GapError
	applied, commits, err := ts.ReplApply(frames[1:])
	if !errors.As(err, &gap) || gap.Want != snapLSN+1 {
		t.Fatalf("gapped frames returned %v, want a GapError wanting lsn %d", err, snapLSN+1)
	}
	if applied != snapLSN || commits != 0 {
		t.Fatalf("gapped frames landed at %d (%d commits), want %d (0)", applied, commits, snapLSN)
	}
	if m := ts.getMetrics(t); m.Store.Failed || m.Epoch != 1 {
		t.Fatalf("after a gap: store failed=%v epoch=%d, want healthy on epoch 1", m.Store.Failed, m.Epoch)
	}
	if applied, _, err := ts.ReplApply(frames); err != nil || applied != leaderLSN {
		t.Fatalf("re-pull after the gap landed at %d (%v), want %d", applied, err, leaderLSN)
	}
	if m := ts.getMetrics(t); m.Store.Failed || m.Epoch != 2 || m.EpochLSN != leaderLSN {
		t.Fatalf("after the re-pull: failed=%v epoch=%d lsn=%d", m.Store.Failed, m.Epoch, m.EpochLSN)
	}

	// An insert naming a vertex the graph does not have is rejected by
	// the store's frame interpreter, which poisons.
	bad := store.RawFrame{LSN: leaderLSN + 1, Kind: 2, Body: []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}}
	if _, _, err := ts.ReplApply([]store.RawFrame{bad}); err == nil || errors.As(err, &gap) {
		t.Fatalf("hostile frame returned %v, want a poisoning rejection", err)
	}
	if m := ts.getMetrics(t); !m.Store.Failed || m.Epoch != 2 {
		t.Fatalf("after a rejected frame: failed=%v epoch=%d, want failed on epoch 2", m.Store.Failed, m.Epoch)
	}
	if _, _, err := ts.ReplApply(frames); err == nil {
		t.Fatal("poisoned follower accepted more frames")
	}
}

// TestFollowerForwarding proves a follower with a leader URL proxies
// writes instead of bouncing them, and degrades to a typed 502 when
// the leader is unreachable.
func TestFollowerForwarding(t *testing.T) {
	lead := newServer(t, Config{})
	ts, _ := startFollower(t, lead.g, lead.Server.st, Config{LeaderURL: lead.URL})

	before := lead.getMetrics(t).Server.UpdatesApplied
	status, ur, eb := ts.postUpdates(t, "- 1 2\n+ 1 2\n")
	if status != http.StatusOK || !ur.Durable {
		t.Fatalf("forwarded write: status %d durable %v (%v)", status, ur.Durable, eb)
	}
	if after := lead.getMetrics(t).Server.UpdatesApplied; after != before+2 {
		t.Fatalf("leader applied %d updates, want %d", after, before+2)
	}

	// Unreachable leader: the forward degrades to a typed 502.
	dead, _ := startFollower(t, lead.g, lead.Server.st, Config{LeaderURL: "http://127.0.0.1:1"})
	if status, _, eb := dead.postUpdates(t, "+ 1 2\n"); status != http.StatusBadGateway || eb.Class != "not_leader" {
		t.Fatalf("forward to dead leader: status %d class %q, want 502 not_leader", status, eb.Class)
	}
}

// TestReplWaitAck pins the replication-ack contract on the leader's
// write path: ReplWait success marks the ack replicated, failure keeps
// the 200 (the write is locally durable) with replicated=false.
func TestReplWaitAck(t *testing.T) {
	var waitErr error
	var waitLSN uint64
	ts := newServer(t, Config{
		ReplWait: func(ctx context.Context, lsn uint64) error {
			waitLSN = lsn
			return waitErr
		},
	})

	status, ur, eb := ts.postUpdates(t, "- 1 2\n")
	if status != http.StatusOK || !ur.Durable || !ur.Replicated {
		t.Fatalf("acked write: status %d durable %v replicated %v (%v)", status, ur.Durable, ur.Replicated, eb)
	}
	if waitLSN == 0 {
		t.Fatal("ReplWait was not handed the batch LSN")
	}

	waitErr = errors.New("quorum timeout")
	status, ur, eb = ts.postUpdates(t, "+ 1 2\n")
	if status != http.StatusOK || !ur.Durable {
		t.Fatalf("unconfirmed write: status %d durable %v (%v)", status, ur.Durable, eb)
	}
	if ur.Replicated {
		t.Fatal("failed ReplWait still reported replicated=true")
	}
}
