package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"adp/internal/store"
)

// TestServeDrain: a drain with in-flight requests completes or cleanly
// cancels every session (each client gets 200 or a typed 503, never a
// dropped connection), returns nil after flushing the WAL, and a second
// start recovers the store with zero un-acked tail.
func TestServeDrain(t *testing.T) {
	dir := t.TempDir() + "/store"
	ts := startServer(t, dir, true, Config{SessionsPerAlgo: 4, MaxInflight: 16}, store.Options{})
	g := ts.g

	// One durable batch before the drain — the recovered store must
	// land exactly here.
	u, v := pickLiveEdge(t, g)
	stream := fmt.Sprintf("- %d %d\ncommit\n", u, v)
	muts, err := store.ParseUpdates(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if status, ur, eb := ts.postUpdates(t, stream); status != http.StatusOK || !ur.Visible {
		t.Fatalf("pre-drain update: status %d %+v (%v)", status, ur, eb)
	}

	// In-flight load: short runs that finish within the grace period
	// and long runs the drain must cancel.
	type outcome struct {
		status int
		class  string
		err    error
	}
	results := make(chan outcome, 8)
	var wg sync.WaitGroup
	// One connection per request: a shared transport dials a spare
	// connection when requests start together, and Shutdown waits 5 s on
	// a connection that never sent a request before it calls it idle.
	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	post := func(req runRequest) {
		defer wg.Done()
		b, _ := json.Marshal(req)
		resp, err := hc.Post(ts.URL+"/run", "application/json", bytes.NewReader(b))
		if err != nil {
			results <- outcome{err: err}
			return
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		var eb errorBody
		json.Unmarshal(raw, &eb)
		results <- outcome{status: resp.StatusCode, class: eb.Class}
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go post(runRequest{Algo: "WCC"})
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go post(runRequest{Algo: "PR", Iterations: 2000000})
	}
	time.Sleep(100 * time.Millisecond) // let every request get admitted

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := ts.Server.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts.once.Do(func() {}) // mark drained for the cleanup hook
	drainTook := time.Since(start)

	wg.Wait()
	close(results)
	completed, cancelled := 0, 0
	for o := range results {
		switch {
		case o.err != nil:
			t.Errorf("in-flight request saw a transport error: %v", o.err)
		case o.status == http.StatusOK:
			completed++
		case o.status == http.StatusServiceUnavailable && (o.class == "cancelled" || o.class == "draining"):
			cancelled++
		default:
			t.Errorf("in-flight request: status %d class %q", o.status, o.class)
		}
	}
	if completed == 0 {
		t.Error("no in-flight run completed within the grace period")
	}
	if cancelled == 0 {
		t.Error("no long run was cancelled — drain either hung or dropped them")
	}
	if drainTook > 5*time.Second {
		t.Errorf("drain took %v; cancellation after grace should bound it", drainTook)
	}
	t.Logf("drain in %v: %d completed, %d cancelled", drainTook.Round(time.Millisecond), completed, cancelled)

	// Second start: the WAL was flushed at drain, so recovery finds a
	// clean store with zero un-acked tail and exactly the acked batch.
	st2, info, err := store.Open(dir, g, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Damage != nil || info.DiscardedMutations != 0 || info.TruncatedBytes != 0 {
		t.Fatalf("second start found un-acked tail: %s", info)
	}
	want := serveComposite(t, serveGraph())
	replayPrefix(t, want, [][]store.Mutation{muts}, 0, 1)
	if err := st2.Composite().EqualState(want); err != nil {
		t.Fatalf("recovered state diverges from acked prefix: %v", err)
	}
	// And the reopened store serves again.
	srv2, err := New(st2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if srv2.Epoch() != 1 {
		t.Fatalf("second server starts at epoch %d, want 1", srv2.Epoch())
	}
	if err := srv2.Drain(context.Background()); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}
