package serve

import (
	"fmt"
	"net/http"
	"testing"

	"adp/internal/costmodel"
	"adp/internal/fault"
	"adp/internal/graph"
	"adp/internal/store"
)

// TestServeApplyRetryLadder: a transient fsync burst SHORTER than the
// retry ladder is absorbed in place — the batch is acked durable, the
// write path never poisons, and the retries show up in /metrics. A
// reopen then recovers every acked batch.
func TestServeApplyRetryLadder(t *testing.T) {
	// Create issues 2 fsyncs (snapshot + segment header); the first
	// update commit is sync #2. Fail it and the first retry; the second
	// retry (sync #4) lands. The ladder makes applyRetries (3) attempts,
	// so the burst is absorbed.
	inj := fault.NewDiskInjector(
		fault.DiskEvent{Kind: fault.SyncErr, N: 2},
		fault.DiskEvent{Kind: fault.SyncErr, N: 3},
	)
	dir := t.TempDir() + "/store"
	ts := startServer(t, dir, true, Config{}, store.Options{Injector: inj})

	var live []graph.VertexID
	ts.g.Edges(func(u, v graph.VertexID) bool {
		if u < v {
			live = append(live, u, v)
		}
		return len(live) < 8
	})

	// The faulted batch still acks: durable, visible in epoch 2.
	stream := fmt.Sprintf("- %d %d\n", live[0], live[1])
	status, ur, eb := ts.postUpdates(t, stream)
	if status != http.StatusOK {
		t.Fatalf("batch under transient fsync burst: status %d (%v)", status, eb)
	}
	if !ur.Durable || ur.Epoch != 2 {
		t.Fatalf("ack = %+v, want durable in epoch 2", ur)
	}

	m := ts.getMetrics(t)
	if m.Store.Failed {
		t.Fatal("transient burst poisoned the write path")
	}
	if m.Server.ApplyRetries != 2 {
		t.Fatalf("apply_retries = %d, want 2", m.Server.ApplyRetries)
	}

	// The write path is fully live afterwards.
	stream2 := fmt.Sprintf("- %d %d\n", live[2], live[3])
	if status, ur2, eb := ts.postUpdates(t, stream2); status != http.StatusOK || ur2.Epoch != 3 {
		t.Fatalf("post-burst batch: status %d epoch %d (%v)", status, ur2.Epoch, eb)
	}

	if err := ts.drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Reopen: both acked batches are in the committed prefix.
	st2, info, err := store.Open(dir, ts.g, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if info.Damage != nil || info.DiscardedMutations != 0 {
		t.Fatalf("recovery not clean: %v", info)
	}
	want := serveComposite(t, serveGraph())
	if !want.DeleteEdge(live[0], live[1]) || !want.DeleteEdge(live[2], live[3]) {
		t.Fatal("oracle delete failed")
	}
	if err := st2.Composite().EqualState(want); err != nil {
		t.Fatalf("recovered state diverges: %v", err)
	}
}

// TestServeApplyRetryExhaustion: a burst longer than the ladder
// poisons exactly as the pre-ladder behavior did, after applyRetries
// retries.
func TestServeApplyRetryExhaustion(t *testing.T) {
	// The first update commit is sync #2; it and every one of the
	// ladder's applyRetries re-issues fail.
	var events []fault.DiskEvent
	for n := 2; n <= 2+applyRetries; n++ {
		events = append(events, fault.DiskEvent{Kind: fault.SyncErr, N: n})
	}
	inj := fault.NewDiskInjector(events...)
	ts := startServer(t, t.TempDir()+"/store", true, Config{}, store.Options{Injector: inj})

	var live []graph.VertexID
	ts.g.Edges(func(u, v graph.VertexID) bool {
		if u < v {
			live = append(live, u, v)
		}
		return len(live) < 4
	})
	stream := fmt.Sprintf("- %d %d\n", live[0], live[1])
	status, _, eb := ts.postUpdates(t, stream)
	if status != http.StatusInternalServerError || eb.Class != "store_failed" {
		t.Fatalf("exhausted ladder: status %d class %q, want 500 store_failed", status, eb.Class)
	}
	m := ts.getMetrics(t)
	if !m.Store.Failed {
		t.Fatal("exhausted ladder did not poison the write path")
	}
	if m.Server.ApplyRetries != applyRetries {
		t.Fatalf("apply_retries = %d, want %d", m.Server.ApplyRetries, applyRetries)
	}
	// Reads keep serving the last good epoch.
	if status, rr, _ := ts.postRun(t, runReqFor(costmodel.WCC)); status != http.StatusOK || rr.Epoch != 1 {
		t.Fatalf("post-poison read: status %d epoch %d", status, rr.Epoch)
	}
}
