package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"adp/internal/engine"
	"adp/internal/gen"
	"adp/internal/partitioner"
	"adp/internal/pool"
)

// The session pool hands out the most recently released cluster, builds
// a cluster only when every built one is in use, and never more than
// its size; a full pool makes acquire wait for its caller's context.
func TestSessionPoolReusesMostRecent(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 200, AvgDeg: 4, Exponent: 2.2, Seed: 5})
	p, err := partitioner.HashEdgeCut(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	sp := newSessionPool(p.Compile(), pool.Serial(), 2)
	ctx := context.Background()
	a, _ := sp.acquire(ctx)
	sp.release(a)
	// A caller at a time: the same warm cluster every time, no second
	// one built.
	for i := 0; i < 3; i++ {
		c, _ := sp.acquire(ctx)
		if c != a {
			t.Fatalf("sequential acquire %d built or picked another cluster", i)
		}
		sp.release(c)
	}
	// Two at once: a second cluster appears; the one released last is
	// the next handed out.
	a, _ = sp.acquire(ctx)
	b, _ := sp.acquire(ctx)
	if a == b {
		t.Fatal("two concurrent sessions share a cluster")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := sp.acquire(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("acquire on a full pool: err = %v, want context.Canceled", err)
	}
	sp.release(a)
	sp.release(b)
	if c, _ := sp.acquire(ctx); c != b {
		t.Fatal("acquire did not return the most recently released cluster")
	}
}

// A step panic comes back from the engine as an error, which /run
// answers with a 500, and the session pool drops the panicked cluster
// but returns its token: a pool of two survives two panicked runs and
// serves a third without waiting, on a fresh cluster.
func TestSessionPoolSurvivesStepPanics(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 200, AvgDeg: 4, Exponent: 2.2, Seed: 5})
	p, err := partitioner.HashEdgeCut(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	sp := newSessionPool(p.Compile(), pool.Serial(), 2)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var panicked []*engine.Cluster
	for i := 0; i < 2; i++ {
		err := sp.run(ctx, func(c *engine.Cluster) error {
			panicked = append(panicked, c)
			_, err := c.RunCtx(ctx, nil, func(w *engine.WorkerCtx, s int, _ engine.Inbox) bool {
				panic("poisoned step")
			}, 5)
			return err
		})
		var pv *pool.Panic
		if !errors.As(err, &pv) {
			t.Fatalf("panicked run %d: err = %v, want a *pool.Panic", i, err)
		}
		rec := httptest.NewRecorder()
		(&Server{}).writeRunErr(rec, err, nil)
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("panicked run %d answered %d, want 500", i, rec.Code)
		}
	}
	var served *engine.Cluster
	err = sp.run(ctx, func(c *engine.Cluster) error {
		served = c
		_, err := c.RunCtx(ctx, nil, func(*engine.WorkerCtx, int, engine.Inbox) bool { return true }, 5)
		return err
	})
	if err != nil {
		t.Fatalf("third run: %v", err)
	}
	for _, c := range panicked {
		if c == served {
			t.Fatal("a panicked cluster went back into the pool")
		}
	}
}
