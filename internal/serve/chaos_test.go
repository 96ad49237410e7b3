package serve

import (
	"fmt"
	"net/http"
	"strings"
	"testing"

	"adp/internal/algorithms"
	"adp/internal/costmodel"
	"adp/internal/engine"
	"adp/internal/fault"
	"adp/internal/graph"
	"adp/internal/pool"
	"adp/internal/store"
	"adp/internal/testutil"
)

// TestServeChaos threads a disk-fault schedule through a live server:
// /run answers 200 with the fault-free oracle's result, the schedule
// poisons the store mid-update-batch (in-flight and later writes get
// typed errors while reads keep serving the last good epoch), the
// server drains without leaking goroutines, and a restart recovers
// exactly the committed WAL prefix.
func TestServeChaos(t *testing.T) {
	g := serveGraph()

	// Dedicated engine pool, warmed before the goroutine baseline so
	// its long-lived helpers are counted in it.
	pl := pool.New(4)
	defer pl.Close()
	warm := serveComposite(t, g).Partition(0).Clone().Compile()
	if _, err := algorithms.Run(engine.NewCluster(warm).UsePool(pl), costmodel.WCC, algorithms.Options{}); err != nil {
		t.Fatal(err)
	}
	baseGoroutines := testutil.GoroutineBaseline()

	// Disk chaos: a burst of failing fsyncs starting at the 6th — a few
	// update batches in, mid-wave, with full EIO ambiguity about
	// durability. The burst outlasts the apply loop's retry ladder
	// (default 3 retries), so the write path must still poison; a
	// shorter burst is absorbed (TestServeApplyRetryLadder).
	diskInj := fault.NewDiskInjector(
		fault.DiskEvent{Kind: fault.SyncErr, N: 6},
		fault.DiskEvent{Kind: fault.SyncErr, N: 7},
		fault.DiskEvent{Kind: fault.SyncErr, N: 8},
		fault.DiskEvent{Kind: fault.SyncErr, N: 9},
		fault.DiskEvent{Kind: fault.SyncErr, N: 10},
	)

	ts := startServer(t, t.TempDir()+"/store", true,
		Config{Pool: pl, SessionsPerAlgo: 2},
		store.Options{Injector: diskInj})

	// Runs answer 200 with the oracle's deterministic report.
	oracle := serveComposite(t, g)
	for _, a := range []costmodel.Algo{costmodel.WCC, costmodel.PR} {
		status, rr, eb := ts.postRun(t, runReqFor(a))
		if status != http.StatusOK {
			t.Fatalf("%s under chaos: status %d (%v)", a, status, eb)
		}
		part := oracle.Partition(algoIndex(a) % oracle.K()).Clone().Compile()
		want, err := algorithms.Run(engine.NewCluster(part).UsePool(pool.Serial()), a, serveAlgoOpts)
		if err != nil {
			t.Fatal(err)
		}
		if rr.Value != want.Value || rr.Checksum != want.Checksum || rr.Supersteps != want.Report.Supersteps {
			t.Fatalf("%s under chaos: (%v,%d,%d) vs fault-free (%v,%d,%d)",
				a, rr.Value, rr.Checksum, rr.Supersteps, want.Value, want.Checksum, want.Report.Supersteps)
		}
	}

	// A deadline that cannot fit the run maps to a typed 504.
	if status, _, eb := ts.postRun(t, runRequest{Algo: "PR", Iterations: 100000, TimeoutMS: 1}); status != http.StatusGatewayTimeout || eb.Class != "timeout" {
		t.Fatalf("timeout under chaos: status %d class %q", status, eb.Class)
	}

	// Update batches until the armed fsync failure poisons the store.
	type edge struct{ u, v graph.VertexID }
	var safe []edge
	g.Edges(func(u, v graph.VertexID) bool {
		if u < v && g.OutDegree(u) > 0 && g.OutDegree(v) > 0 {
			safe = append(safe, edge{u, v})
		}
		return len(safe) < 32
	})
	var batches [][]store.Mutation
	acked, failed := 0, false
	var lastGoodEpoch uint64 = 1
	for i := 0; i < 12 && !failed; i++ {
		e := safe[i%len(safe)]
		var s string
		if i%2 == 0 {
			s = fmt.Sprintf("- %d %d\n", e.u, e.v)
		} else {
			s = fmt.Sprintf("+ %d %d\n", e.u, e.v)
		}
		muts, err := store.ParseUpdates(strings.NewReader(s))
		if err != nil {
			t.Fatal(err)
		}
		batches = append(batches, muts)
		status, ur, eb := ts.postUpdates(t, s)
		switch status {
		case http.StatusOK:
			acked++
			lastGoodEpoch = ur.Epoch
		case http.StatusInternalServerError:
			if eb.Class != "store_failed" {
				t.Fatalf("batch %d: 500 with class %q, want store_failed", i, eb.Class)
			}
			failed = true
		default:
			t.Fatalf("batch %d: status %d (%v)", i, status, eb)
		}
	}
	if !failed {
		t.Fatalf("fsync fault never fired (%d batches acked)", acked)
	}
	if acked == 0 {
		t.Fatal("store poisoned before any batch committed; schedule too early")
	}

	// After the poison: writes fail fast with a typed 503, reads keep
	// serving the last published epoch.
	e := safe[0]
	if status, _, eb := ts.postUpdates(t, fmt.Sprintf("+ %d %d\n", e.u, e.v)); status != http.StatusServiceUnavailable || eb.Class != "store_failed" {
		t.Fatalf("post-poison update: status %d class %q, want 503 store_failed", status, eb.Class)
	}
	status, vr, _ := ts.getVertex(t, int(e.u))
	if status != http.StatusOK || vr.Epoch != lastGoodEpoch {
		t.Fatalf("post-poison read: status %d epoch %d, want 200 epoch %d", status, vr.Epoch, lastGoodEpoch)
	}
	if status, rr, eb := ts.postRun(t, runReqFor(costmodel.WCC)); status != http.StatusOK || rr.Epoch != lastGoodEpoch {
		t.Fatalf("post-poison run: status %d epoch %d (%v)", status, rr.Epoch, eb)
	}
	if m := ts.getMetrics(t); !m.Store.Failed {
		t.Fatal("metrics do not report the poisoned write path")
	} else if m.Server.ApplyRetries == 0 {
		t.Fatal("retry ladder never ran before the poison")
	}

	// Drain. Closing a poisoned store may surface the write error —
	// what matters is that drain returns and nothing leaks.
	drainErr := ts.drain()
	t.Logf("drain after poison: %v", drainErr)
	testutil.CheckGoroutines(t, baseGoroutines, 2)

	// Restart: recovery lands on a commit boundary covering either the
	// acked prefix or acked+1 (the failed fsync's data may have reached
	// the disk — exactly the ambiguity a real EIO leaves), with no
	// damage and nothing discarded.
	st2, info, err := store.Open(ts.Dir, g, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if info.Damage != nil {
		t.Fatalf("recovery found damage: %s", info)
	}
	want := serveComposite(t, serveGraph())
	replayPrefix(t, want, batches, 0, acked)
	if err := st2.Composite().EqualState(want); err != nil {
		replayPrefix(t, want, batches, acked, acked+1)
		if err2 := st2.Composite().EqualState(want); err2 != nil {
			t.Fatalf("recovered state matches neither %d nor %d batches:\n  %v\n  %v", acked, acked+1, err, err2)
		}
		t.Logf("recovered state includes the ambiguous batch %d (%s)", acked, info)
	} else {
		t.Logf("recovered exactly the %d acked batches (%s)", acked, info)
	}
}
