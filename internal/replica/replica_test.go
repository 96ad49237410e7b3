package replica

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"

	"adp/internal/composite"
	"adp/internal/fault"
	"adp/internal/gen"
	"adp/internal/graph"
	"adp/internal/partition"
	"adp/internal/partitioner"
	"adp/internal/store"
	"adp/internal/testutil"
)

// testGraph rebuilds the deterministic replication test graph; two
// builds are identical, so offline oracles replay state exactly.
func testGraph() *graph.Graph {
	return gen.PowerLaw(gen.PowerLawConfig{N: 300, AvgDeg: 5, Exponent: 2.2, Directed: false, Seed: 41})
}

func testComposite(t testing.TB, g *graph.Graph) *composite.Composite {
	t.Helper()
	p1, err := partitioner.HashEdgeCut(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	assign := make([]int, g.NumVertices())
	for v := range assign {
		assign[v] = (v + 1) % 3
	}
	p2, err := partition.FromVertexAssignment(g, assign, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := composite.New(g, []*partition.Partition{p1, p2})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// genMuts derives n seeded mutations with explicit destination vectors
// against c's current edge set (mutating a clone as it goes, so a
// later call with the advanced composite continues the stream).
func genMuts(t testing.TB, g *graph.Graph, c *composite.Composite, n int, seed int64) []store.Mutation {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nv := uint32(g.NumVertices())
	live := map[uint64]bool{}
	p := c.Partition(0)
	for i := 0; i < p.NumFragments(); i++ {
		p.Fragment(i).Vertices(func(v graph.VertexID, adj *partition.Adj) {
			for _, w := range adj.Out {
				live[uint64(v)<<32|uint64(w)] = true
			}
		})
	}
	var liveList []uint64
	for k := range live {
		liveList = append(liveList, k)
	}
	for i := 1; i < len(liveList); i++ {
		for j := i; j > 0 && liveList[j] < liveList[j-1]; j-- {
			liveList[j], liveList[j-1] = liveList[j-1], liveList[j]
		}
	}
	muts := make([]store.Mutation, 0, n)
	for len(muts) < n {
		if rng.Intn(3) == 0 && len(liveList) > 0 {
			i := rng.Intn(len(liveList))
			k := liveList[i]
			liveList[i] = liveList[len(liveList)-1]
			liveList = liveList[:len(liveList)-1]
			delete(live, k)
			muts = append(muts, store.Mutation{Kind: store.MutDelete, U: graph.VertexID(k >> 32), V: graph.VertexID(uint32(k))})
			continue
		}
		u, v := rng.Uint32()%nv, rng.Uint32()%nv
		if u == v || live[uint64(u)<<32|uint64(v)] {
			continue
		}
		dest := make([]int, c.K())
		for j := range dest {
			dest[j] = rng.Intn(c.N())
		}
		live[uint64(u)<<32|uint64(v)] = true
		muts = append(muts, store.Mutation{Kind: store.MutInsert, U: graph.VertexID(u), V: graph.VertexID(v), Dest: dest})
	}
	return muts
}

// applyBatches feeds muts to the leader in commit-terminated chunks.
func applyBatches(t testing.TB, st *store.Store, muts []store.Mutation, chunk int) {
	t.Helper()
	for i := 0; i < len(muts); i += chunk {
		end := i + chunk
		if end > len(muts) {
			end = len(muts)
		}
		batch := append(muts[i:end:end], store.Mutation{Kind: store.MutCommit})
		if _, _, err := st.Apply(batch); err != nil {
			t.Fatal(err)
		}
	}
}

func newLeaderStore(t testing.TB, opts store.Options) (*graph.Graph, *store.Store) {
	t.Helper()
	g := testGraph()
	st, err := store.Create(t.TempDir()+"/leader", testComposite(t, g), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return g, st
}

// waitCaughtUp polls until the follower's durable watermark reaches
// target.
func waitCaughtUp(t testing.TB, f *Follower, target uint64, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for f.Applied() < target {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at lsn %d, want %d (stats %+v, err %v)", f.Applied(), target, f.Stats(), f.Err())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestLeaderHandle(t *testing.T) {
	g, st := newLeaderStore(t, store.Options{})
	applyBatches(t, st, genMuts(t, g, st.Composite().Clone(), 30, 3), 10)
	committed := st.CommittedLSN()
	ld := NewLeader(st, LeaderConfig{})

	if resp := ld.Handle(&Message{Type: MsgError}); resp.Type != MsgError || resp.ErrCode != ErrCodeBadRequest {
		t.Fatalf("reply to error message: %+v", resp)
	}
	if resp := ld.Handle(&Message{Type: MsgPull, Applied: committed + 5}); resp.Type != MsgError || resp.ErrCode != ErrCodeDiverged {
		t.Fatalf("diverged pull answered %+v", resp)
	}
	// Caught up: an empty frames reply carrying the watermark.
	if resp := ld.Handle(&Message{Type: MsgPull, Applied: committed, ID: "a"}); resp.Type != MsgFrames || len(resp.Frames) != 0 || resp.Committed != committed {
		t.Fatalf("caught-up pull answered %+v", resp)
	}
	// A pull from 0 streams from LSN 1; Max is a soft cap rounded up to
	// the commit boundary so the puller always completes a batch.
	resp := ld.Handle(&Message{Type: MsgPull, Applied: 0, Max: 1, ID: "b"})
	if resp.Type != MsgFrames || len(resp.Frames) == 0 {
		t.Fatalf("pull from 0 answered %+v", resp)
	}
	if first, last := resp.Frames[0], resp.Frames[len(resp.Frames)-1]; first.LSN != 1 || last.LSN > committed {
		t.Fatalf("pull from 0 spans [%d,%d], watermark %d", first.LSN, last.LSN, committed)
	}
	// The bootstrap path serves the newest snapshot.
	if resp := ld.Handle(&Message{Type: MsgSnapReq}); resp.Type != MsgSnapshot || len(resp.Snapshot) == 0 {
		t.Fatalf("snapreq answered %+v", resp)
	}
	// Watermarks reflect the Applied each ID advertised.
	wm := ld.Watermarks()
	if wm["a"] != committed || wm["b"] != 0 {
		t.Fatalf("watermarks %v, want a=%d b=0", wm, committed)
	}

	// WaitDurable on a fresh leader with no follower history: disabled
	// below 1 follower, satisfied once a pull advertises the LSN, and
	// ctx-bounded otherwise.
	ld2 := NewLeader(st, LeaderConfig{})
	if err := ld2.WaitDurable(context.Background(), committed, 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := ld2.WaitDurable(ctx, committed, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("unreplicated WaitDurable returned %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- ld2.WaitDurable(context.Background(), committed, 1) }()
	ld2.Handle(&Message{Type: MsgPull, Applied: committed, ID: "b"})
	if err := <-done; err != nil {
		t.Fatalf("WaitDurable after advance: %v", err)
	}
}

// TestPipeCatchUpChaos is the transport-level chaos proof: a follower
// pulling over a pipe with seeded drop/dup/reorder/delay/partition
// faults on BOTH directions, plus fsync faults on its own disk,
// converges to the leader's exact committed state, and a reopen of its
// directory recovers that state bit-for-bit.
func TestPipeCatchUpChaos(t *testing.T) {
	g, st := newLeaderStore(t, store.Options{})
	muts := genMuts(t, g, st.Composite().Clone(), 200, 5)
	applyBatches(t, st, muts[:100], 10)

	ld := NewLeader(st, LeaderConfig{Logf: t.Logf})
	pipe := NewPipe(ld,
		fault.NewNetInjector(fault.RandomNet(21, 30, 150, 2*time.Millisecond)...),
		fault.NewNetInjector(fault.RandomNet(22, 30, 150, 2*time.Millisecond)...),
	)
	defer pipe.Close()

	dirF := t.TempDir() + "/follower"
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	diskInj := fault.NewDiskInjector(
		fault.DiskEvent{Kind: fault.SyncErr, N: 5},
		fault.DiskEvent{Kind: fault.SyncErr, N: 9},
	)
	fst, err := Bootstrap(ctx, pipe.Dialer(), dirF, g, store.Options{Injector: diskInj})
	if err != nil {
		t.Fatal(err)
	}
	defer fst.Close()

	pump := NewFollower(&StoreApplier{St: fst}, FollowerConfig{
		ID:           "chaos-1",
		Dial:         pipe.Dialer(),
		PullTimeout:  50 * time.Millisecond,
		PollInterval: time.Millisecond,
		BackoffBase:  time.Millisecond,
		BackoffCap:   20 * time.Millisecond,
		Seed:         99,
		MaxFrames:    7,
		Logf:         t.Logf,
	})
	pump.Start()
	defer pump.Stop()

	// Keep writing while the follower chases through the chaos window.
	applyBatches(t, st, muts[100:], 10)
	waitCaughtUp(t, pump, st.CommittedLSN(), 20*time.Second)
	pump.Stop()

	if err := fst.Composite().EqualState(st.Composite()); err != nil {
		t.Fatalf("follower diverged: %v", err)
	}
	stats := pump.Stats()
	if stats.Pulls == 0 || stats.Frames == 0 {
		t.Fatalf("implausible pump stats %+v", stats)
	}

	wm := fst.CommittedLSN()
	if err := fst.Close(); err != nil {
		t.Fatal(err)
	}
	re, info, err := store.Open(dirF, g, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if info.Damage != nil {
		t.Fatalf("follower reopen found damage: %v", info)
	}
	if re.CommittedLSN() != wm {
		t.Fatalf("reopened watermark %d, want %d", re.CommittedLSN(), wm)
	}
	if err := re.Composite().EqualState(st.Composite()); err != nil {
		t.Fatalf("reopened follower diverged: %v", err)
	}
}

// TestFailoverNoAckedLoss kills the leader mid-stream and promotes the
// follower: every write acked as replicated (WaitDurable) survives
// promotion bitwise, the ambiguity is confined to the unacked tail,
// and the promoted node accepts and durably commits its own writes.
func TestFailoverNoAckedLoss(t *testing.T) {
	g, st := newLeaderStore(t, store.Options{})
	muts := genMuts(t, g, st.Composite().Clone(), 150, 7)

	ld := NewLeader(st, LeaderConfig{Logf: t.Logf})
	pipe := NewPipe(ld, nil, nil)
	defer pipe.Close()

	dirF := t.TempDir() + "/follower"
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fst, err := Bootstrap(ctx, pipe.Dialer(), dirF, g, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fst.Close()
	pump := NewFollower(&StoreApplier{St: fst}, FollowerConfig{
		ID:           "failover-1",
		Dial:         pipe.Dialer(),
		PullTimeout:  50 * time.Millisecond,
		PollInterval: time.Millisecond,
		BackoffBase:  time.Millisecond,
		Seed:         3,
		Logf:         t.Logf,
	})
	pump.Start()

	// Acked writes: applied AND confirmed replicated via WaitDurable.
	applyBatches(t, st, muts[:100], 10)
	ackedLSN := st.CommittedLSN()
	wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := ld.WaitDurable(wctx, ackedLSN, 1); err != nil {
		t.Fatalf("acked writes never replicated: %v", err)
	}
	wcancel()
	ackedState := st.Composite().Clone()

	// One more batch with NO replication ack, then the leader dies with
	// the pipe: its fate is ambiguous by design.
	applyBatches(t, st, muts[100:], 50)
	unackedLSN := st.CommittedLSN()
	pipe.Close()

	// Operator-triggered failover.
	if err := pump.Promote(); err != nil {
		t.Fatal(err)
	}
	if !pump.Promoted() {
		t.Fatal("promoted follower does not report Promoted")
	}
	if err := pump.Promote(); err != nil {
		t.Fatalf("second promote not idempotent: %v", err)
	}

	got := fst.CommittedLSN()
	if got < ackedLSN {
		t.Fatalf("promotion lost acked writes: watermark %d < acked %d", got, ackedLSN)
	}
	switch {
	case got == ackedLSN:
		if err := fst.Composite().EqualState(ackedState); err != nil {
			t.Fatalf("promoted state diverged from acked prefix: %v", err)
		}
	case got == unackedLSN:
		if err := fst.Composite().EqualState(st.Composite()); err != nil {
			t.Fatalf("promoted state diverged from full prefix: %v", err)
		}
	default:
		t.Fatalf("promoted watermark %d matches neither acked %d nor unacked %d", got, ackedLSN, unackedLSN)
	}

	// The new leader accepts its own writes past the fence.
	own := genMuts(t, g, fst.Composite().Clone(), 20, 9)
	applyBatches(t, fst, own, 10)
	if fst.CommittedLSN() <= got {
		t.Fatal("own writes did not advance the promoted watermark")
	}

	// And the whole history — replicated prefix plus own writes —
	// survives a restart of the promoted node.
	want := fst.Composite().Clone()
	wm := fst.CommittedLSN()
	if err := fst.Close(); err != nil {
		t.Fatal(err)
	}
	re, info, err := store.Open(dirF, g, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if info.Damage != nil {
		t.Fatalf("promoted reopen found damage: %v", info)
	}
	if re.CommittedLSN() != wm {
		t.Fatalf("promoted reopen watermark %d, want %d", re.CommittedLSN(), wm)
	}
	if err := re.Composite().EqualState(want); err != nil {
		t.Fatalf("promoted reopen diverged: %v", err)
	}
}

// TestLeaseAutoPromote proves the lease failover: once the leader goes
// silent longer than the lease, the pump promotes itself, reports
// ErrPromoted, and the store accepts writes.
func TestLeaseAutoPromote(t *testing.T) {
	g, st := newLeaderStore(t, store.Options{})
	applyBatches(t, st, genMuts(t, g, st.Composite().Clone(), 40, 11), 10)

	ld := NewLeader(st, LeaderConfig{})
	pipe := NewPipe(ld, nil, nil)
	defer pipe.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	dirF := t.TempDir() + "/follower"
	fst, err := Bootstrap(ctx, pipe.Dialer(), dirF, g, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fst.Close()
	pump := NewFollower(&StoreApplier{St: fst}, FollowerConfig{
		ID:           "lease-1",
		Dial:         pipe.Dialer(),
		PullTimeout:  20 * time.Millisecond,
		PollInterval: time.Millisecond,
		BackoffBase:  time.Millisecond,
		Seed:         5,
		Lease:        150 * time.Millisecond,
		Logf:         t.Logf,
	})
	pump.Start()
	defer pump.Stop()
	waitCaughtUp(t, pump, st.CommittedLSN(), 10*time.Second)

	// Leader dies; the lease runs out; the pump promotes itself.
	pipe.Close()
	deadline := time.Now().Add(10 * time.Second)
	for !pump.Promoted() {
		if time.Now().After(deadline) {
			t.Fatalf("lease expiry never promoted (stats %+v, err %v)", pump.Stats(), pump.Err())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := pump.Err(); !errors.Is(err, ErrPromoted) {
		t.Fatalf("pump stopped with %v, want ErrPromoted", err)
	}
	if err := fst.Composite().EqualState(st.Composite()); err != nil {
		t.Fatalf("auto-promoted state diverged: %v", err)
	}
	own := genMuts(t, g, fst.Composite().Clone(), 10, 13)
	applyBatches(t, fst, own, 10)
}

// TestSnapshotReBase drives a follower so far behind that the leader
// compacts past it: the pull protocol answers with a snapshot, the
// follower re-bases and keeps streaming.
func TestSnapshotReBase(t *testing.T) {
	g, st := newLeaderStore(t, store.Options{SnapshotEvery: 30})
	ld := NewLeader(st, LeaderConfig{})
	pipe := NewPipe(ld, nil, nil)
	defer pipe.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	dirF := t.TempDir() + "/follower"
	fst, err := Bootstrap(ctx, pipe.Dialer(), dirF, g, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fst.Close()

	// Leader advances and compacts while the follower is not pulling.
	applyBatches(t, st, genMuts(t, g, st.Composite().Clone(), 120, 17), 10)

	pump := NewFollower(&StoreApplier{St: fst}, FollowerConfig{
		ID:           "rebase-1",
		Dial:         pipe.Dialer(),
		PullTimeout:  50 * time.Millisecond,
		PollInterval: time.Millisecond,
		BackoffBase:  time.Millisecond,
		Seed:         7,
		Logf:         t.Logf,
	})
	pump.Start()
	defer pump.Stop()
	waitCaughtUp(t, pump, st.CommittedLSN(), 20*time.Second)
	pump.Stop()

	if pump.Stats().Snapshots == 0 {
		t.Fatalf("catch-up never installed a snapshot: %+v", pump.Stats())
	}
	if err := fst.Composite().EqualState(st.Composite()); err != nil {
		t.Fatalf("re-based follower diverged: %v", err)
	}
}

// TestTCPCatchUp runs the real transport end to end: leader serving on
// a loopback listener, follower dialing with TCPDialer, clean
// convergence, and no goroutines left behind after teardown.
func TestTCPCatchUp(t *testing.T) {
	base := testutil.GoroutineBaseline()
	g, st := newLeaderStore(t, store.Options{})
	muts := genMuts(t, g, st.Composite().Clone(), 100, 19)
	applyBatches(t, st, muts[:50], 10)

	ld := NewLeader(st, LeaderConfig{Logf: t.Logf})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		ld.Serve(ln)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	dirF := t.TempDir() + "/follower"
	fst, err := Bootstrap(ctx, TCPDialer(ln.Addr().String()), dirF, g, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fst.Close()
	pump := NewFollower(&StoreApplier{St: fst}, FollowerConfig{
		ID:           "tcp-1",
		Dial:         TCPDialer(ln.Addr().String()),
		PullTimeout:  200 * time.Millisecond,
		PollInterval: time.Millisecond,
		BackoffBase:  time.Millisecond,
		Seed:         23,
		Logf:         t.Logf,
	})
	pump.Start()
	applyBatches(t, st, muts[50:], 10)
	waitCaughtUp(t, pump, st.CommittedLSN(), 20*time.Second)
	pump.Stop()

	if err := fst.Composite().EqualState(st.Composite()); err != nil {
		t.Fatalf("TCP follower diverged: %v", err)
	}
	wm := ld.Watermarks()
	if wm["tcp-1"] != st.CommittedLSN() {
		t.Fatalf("leader watermark table %v, want tcp-1=%d", wm, st.CommittedLSN())
	}

	ln.Close()
	ld.Close()
	<-serveDone
	testutil.CheckGoroutines(t, base, 2)
}

// failOnceApplier is an Applier whose first Promote fails.
type failOnceApplier struct {
	promotes int
}

func (a *failOnceApplier) ApplyFrames([]store.RawFrame) (uint64, int, error) { return 0, 0, nil }
func (a *failOnceApplier) InstallSnapshot([]byte, uint64) (uint64, error)    { return 0, nil }
func (a *failOnceApplier) AppliedLSN() uint64                                { return 0 }
func (a *failOnceApplier) Promote() error {
	a.promotes++
	if a.promotes == 1 {
		return errors.New("fence failed")
	}
	return nil
}

// TestPromoteFailureLeavesFlagClear: Promoted() describes the node, so
// a failed applier.Promote must leave it false and a retry must run the
// promotion again; once it succeeded further calls are no-ops.
func TestPromoteFailureLeavesFlagClear(t *testing.T) {
	a := &failOnceApplier{}
	pump := NewFollower(a, FollowerConfig{ID: "p"})
	if err := pump.Promote(); err == nil {
		t.Fatal("first Promote should surface the applier's error")
	}
	if pump.Promoted() {
		t.Fatal("Promoted() true after a failed promotion")
	}
	if err := pump.Promote(); err != nil || !pump.Promoted() {
		t.Fatalf("retry: err %v, promoted %v", err, pump.Promoted())
	}
	if err := pump.Promote(); err != nil || a.promotes != 2 {
		t.Fatalf("idempotent call: err %v, applier promoted %d times, want 2", err, a.promotes)
	}
}
