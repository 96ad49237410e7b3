package serve

import (
	"context"
	"errors"
	"testing"

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
