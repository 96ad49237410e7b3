package serve

import (
	"context"
	"sync"

	"adp/internal/engine"
	"adp/internal/partition"
	"adp/internal/pool"
)

// sessionPool is a bounded pool of engine clusters over one immutable
// epoch partition. Clusters are built on demand — a cluster compiles
// its responsibility index at construction, so building them lazily
// keeps epoch publishes cheap for algorithms nobody is running.
// Acquire queues (that is the admission "batching onto session pools":
// excess requests wait for a session, bounded by their own deadline)
// and release returns the cluster for reuse; each cluster is held
// exclusively between the two, which is what makes Configure+Run safe.
//
// Idle clusters are handed out most recently used first. A cluster
// keeps its scan plan and every run buffer warm between runs, so the
// last one released is the cheapest to run again, and under a load
// that never needs the pool's full width the spare clusters are never
// built, let alone kept warm: the pool's memory follows the
// concurrency actually seen, not its bound.
type sessionPool struct {
	part *partition.Partition
	pl   *pool.Pool
	// tokens bounds the clusters in use; idle is the stack of built,
	// released ones.
	tokens chan struct{}
	mu     sync.Mutex
	idle   []*engine.Cluster
}

func newSessionPool(part *partition.Partition, pl *pool.Pool, size int) *sessionPool {
	return &sessionPool{part: part, pl: pl, tokens: make(chan struct{}, size)}
}

func (sp *sessionPool) acquire(ctx context.Context) (*engine.Cluster, error) {
	select {
	case sp.tokens <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	sp.mu.Lock()
	var c *engine.Cluster
	if n := len(sp.idle); n > 0 {
		c, sp.idle = sp.idle[n-1], sp.idle[:n-1]
	}
	sp.mu.Unlock()
	if c == nil {
		// Safe under concurrency: the partition is quiescent (the
		// epoch is immutable) and already compiled, so NewCluster
		// only reads it.
		c = engine.NewCluster(sp.part).UsePool(sp.pl)
	}
	return c, nil
}

func (sp *sessionPool) release(c *engine.Cluster) {
	sp.mu.Lock()
	sp.idle = append(sp.idle, c)
	sp.mu.Unlock()
	<-sp.tokens
}
