package serve

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
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

// TestServeSnapshotFaultNamesCause: a short write on the snapshot the
// store's compaction rule takes after a durable commit. The batch was
// durable before the snapshot began, so it acks 200; the failed
// snapshot poisons the store, so the next batch is refused with 503
// store_failed; and the log line that reports the poisoning names the
// snapshot's error.
func TestServeSnapshotFaultNamesCause(t *testing.T) {
	var live []graph.VertexID
	serveGraph().Edges(func(u, v graph.VertexID) bool {
		if u < v {
			live = append(live, u, v)
		}
		return len(live) < 100
	})
	// Every batch deletes and re-inserts the same 50 edges: 100 logged
	// mutations that leave the composite as it was.
	var b strings.Builder
	for i := 0; i < len(live); i += 2 {
		fmt.Fprintf(&b, "- %d %d\n+ %d %d\n", live[i], live[i+1], live[i], live[i+1])
	}
	stream := b.String()

	// A fault-free run finds the batch whose commit compacts first and
	// the write ordinal of that commit: before the compaction every
	// batch is one write, and the snapshot file is the write after it.
	fire, w := -1, 0
	{
		inj := fault.NewDiskInjector()
		ts := startServer(t, t.TempDir()+"/store", true, Config{}, store.Options{Injector: inj})
		for i := 0; fire < 0 && i < 200; i++ {
			w = inj.Writes()
			if status, _, eb := ts.postUpdates(t, stream); status != http.StatusOK {
				t.Fatalf("fault-free batch %d: status %d (%v)", i, status, eb)
			}
			if ts.getMetrics(t).Wal.SnapshotLSN > 0 {
				fire = i
			}
		}
		if fire < 1 {
			t.Fatalf("compaction fired at batch %d", fire)
		}
		if err := ts.drain(); err != nil {
			t.Fatal(err)
		}
	}

	var mu sync.Mutex
	var logged []string
	logf := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logged = append(logged, fmt.Sprintf(format, args...))
	}
	inj := fault.NewDiskInjector(fault.DiskEvent{Kind: fault.ShortWrite, N: w + 1, Bytes: 10})
	ts := startServer(t, t.TempDir()+"/store", true, Config{Logf: logf}, store.Options{Injector: inj})
	for i := 0; i <= fire; i++ {
		if status, ur, eb := ts.postUpdates(t, stream); status != http.StatusOK || !ur.Durable {
			t.Fatalf("batch %d (the compacting one is %d): status %d %+v (%v)", i, fire, status, ur, eb)
		}
	}
	if status, _, eb := ts.postUpdates(t, stream); status != http.StatusServiceUnavailable || eb.Class != "store_failed" {
		t.Fatalf("batch after the failed snapshot: status %d class %q, want 503 store_failed", status, eb.Class)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, line := range logged {
		if strings.Contains(line, "store poisoned") {
			if !strings.Contains(line, "writing snapshot") || !strings.Contains(line, "short write") {
				t.Fatalf("poisoning logged as %q, want the snapshot's short write named", line)
			}
			return
		}
	}
	t.Fatalf("no poisoning logged: %q", logged)
}
