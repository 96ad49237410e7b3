package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"adp/internal/composite"
	"adp/internal/gen"
	"adp/internal/graph"
	"adp/internal/partition"
	"adp/internal/partitioner"
	"adp/internal/replica"
	"adp/internal/store"
)

// Replication measures the replication plane over the in-process pipe
// transport on a clean network:
//
//   - replication lag: wall time from a leader commit to the follower's
//     durable apply of that LSN — the freshness bound a min_lsn reader
//     actually waits out.
//   - failover: wall time from a dead leader to the promoted follower
//     acking its first own committed write (pump stop + log fence +
//     segment rotation + write + fsync).
func Replication() (*Table, error) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 3000, AvgDeg: 6, Exponent: 2.1, Directed: true, Seed: 29})
	p1, err := partitioner.HashEdgeCut(g, 8)
	if err != nil {
		return nil, err
	}
	assign := make([]int, g.NumVertices())
	for v := range assign {
		assign[v] = (v + 1) % 8
	}
	p2, err := partition.FromVertexAssignment(g, assign, 8)
	if err != nil {
		return nil, err
	}
	comp, err := composite.New(g, []*partition.Partition{p1, p2})
	if err != nil {
		return nil, err
	}

	dir, err := os.MkdirTemp("", "adp-bench-repl-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Create(filepath.Join(dir, "leader"), comp, store.Options{})
	if err != nil {
		return nil, err
	}
	defer st.Close()

	// Deterministic toggle stream: a multiplicative stride walks vertex
	// pairs; fresh pairs insert, collisions with the live set delete, so
	// the store never grows without bound.
	nv := uint32(g.NumVertices())
	dest := []int{0, 1}
	live := map[uint64]bool{}
	step := 1 << 16
	mutate := func() error {
		u32 := uint32(step*2654435761) % nv
		v32 := (u32 + 1 + uint32(step*40503)%(nv-1)) % nv
		step++
		u, v := graph.VertexID(u32), graph.VertexID(v32)
		key := uint64(u)<<32 | uint64(v)
		if live[key] {
			delete(live, key)
			_, err := st.Delete(u, v)
			return err
		}
		live[key] = true
		return st.Insert(u, v, dest)
	}
	commitBatch := func(muts int) error {
		for i := 0; i < muts; i++ {
			if err := mutate(); err != nil {
				return err
			}
		}
		return st.Commit()
	}

	// Seed history so bootstrap ships a real snapshot.
	for i := 0; i < 10; i++ {
		if err := commitBatch(4); err != nil {
			return nil, err
		}
	}

	ld := replica.NewLeader(st, replica.LeaderConfig{})
	defer ld.Close()
	pipe := replica.NewPipe(ld, nil, nil)
	defer pipe.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	fst, err := replica.Bootstrap(ctx, pipe.Dialer(), filepath.Join(dir, "follower"), g, store.Options{})
	if err != nil {
		return nil, err
	}
	defer fst.Close()

	appliedCh := make(chan uint64, 256)
	pump := replica.NewFollower(&replica.StoreApplier{St: fst}, replica.FollowerConfig{
		ID:           "bench-1",
		Dial:         pipe.Dialer(),
		PollInterval: 200 * time.Microsecond,
		MaxFrames:    1024,
		OnApplied: func(lsn uint64) {
			select {
			case appliedCh <- lsn:
			default:
			}
		},
	})
	pump.Start()
	defer pump.Stop()

	waitApplied := func(target uint64) error {
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		deadline := time.After(20 * time.Second)
		for pump.Applied() < target {
			select {
			case <-appliedCh:
			case <-tick.C:
			case <-deadline:
				return fmt.Errorf("bench: follower stuck at %d chasing %d", pump.Applied(), target)
			}
		}
		return nil
	}

	// replication_lag: commit on the leader, stamp when the follower's
	// durable watermark covers it. A few warm-up rounds let the pump
	// settle into its poll cadence before the clock starts.
	const warm, rounds = 4, 32
	var total time.Duration
	for i := 0; i < warm+rounds; i++ {
		t0 := time.Now()
		if err := commitBatch(4); err != nil {
			return nil, err
		}
		if err := waitApplied(st.CommittedLSN()); err != nil {
			return nil, err
		}
		if i >= warm {
			total += time.Since(t0)
		}
	}
	lagMS := float64((total / rounds).Microseconds()) / 1000

	// failover: kill the transport, promote, and time to the first own
	// committed write on the new leader. The follower is fully caught
	// up at this point, so no acked history is at stake.
	t0 := time.Now()
	pipe.Close()
	if err := pump.Promote(); err != nil {
		return nil, err
	}
	u32 := uint32(step*2654435761) % nv
	v32 := (u32 + 1 + uint32(step*40503)%(nv-1)) % nv
	if err := fst.Insert(graph.VertexID(u32), graph.VertexID(v32), dest); err != nil {
		return nil, err
	}
	if err := fst.Commit(); err != nil {
		return nil, err
	}
	failoverMS := float64(time.Since(t0).Microseconds()) / 1000
	t := &Table{
		ID:     "repl",
		Title:  "Replication lag and failover (PowerLaw N=3000, 2x8 fragments, pipe transport)",
		Header: []string{"replication lag(ms)", "failover(ms)"},
	}
	t.addRow([]string{fmtF(lagMS), fmtF(failoverMS)}, []float64{lagMS, failoverMS})
	t.Notes = append(t.Notes,
		fmt.Sprintf("lag: mean over %d rounds of a 4-mutation leader commit to the follower's durable apply; failover: dead leader to the promoted follower's first own committed write, one sample", rounds))
	return t, nil
}
