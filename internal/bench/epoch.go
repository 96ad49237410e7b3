package bench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adp/internal/composite"
	"adp/internal/gen"
	"adp/internal/graph"
	"adp/internal/partition"
	"adp/internal/partitioner"
	"adp/internal/serve"
	"adp/internal/store"
)

// epochWaveSize is the update-wave size of the epoch_publish series: a
// handful of mutations, the steady-state shape the serving plane's
// apply loop folds per publish. The point of the series is that the
// publish cost tracks this number, not the graph.
const epochWaveSize = 8

// epochGraph builds the large-graph COW workload: a 16-fragment k=2
// composite over a PowerLaw graph an order of magnitude bigger than
// the reference serving graph, so an O(graph) publish is visibly
// expensive while an O(delta) publish is not.
func epochGraph() (*graph.Graph, *composite.Composite, error) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 40000, AvgDeg: 8, Exponent: 2.1, Directed: true, Seed: 29})
	p1, err := partitioner.HashEdgeCut(g, 16)
	if err != nil {
		return nil, nil, err
	}
	assign := make([]int, g.NumVertices())
	for v := range assign {
		assign[v] = (v + 1) % 16
	}
	p2, err := partition.FromVertexAssignment(g, assign, 16)
	if err != nil {
		return nil, nil, err
	}
	comp, err := composite.New(g, []*partition.Partition{p1, p2})
	if err != nil {
		return nil, nil, err
	}
	return g, comp, nil
}

// epochWaver generates the deterministic mutation stream both publish
// arms replay: a multiplicative stride walks vertex pairs, inserting
// absent arcs and deleting the ones it inserted earlier — the same
// scheme as the wal_append series, kept here so the composite never
// grows without bound.
type epochWaver struct {
	nv   uint32
	live map[uint64]bool
	step int
	dest []int
}

func newEpochWaver(g *graph.Graph) *epochWaver {
	return &epochWaver{nv: uint32(g.NumVertices()), live: map[uint64]bool{}, dest: []int{0, 1}}
}

// apply runs one wave of epochWaveSize mutations against comp.
func (w *epochWaver) apply(comp *composite.Composite) error {
	for m := 0; m < epochWaveSize; m++ {
		i := w.step
		w.step++
		u := uint32(i*2654435761) % w.nv
		v := (u + 1 + uint32(i*40503)%(w.nv-1)) % w.nv
		key := uint64(u)<<32 | uint64(v)
		if w.live[key] {
			delete(w.live, key)
			if !comp.DeleteEdge(graph.VertexID(u), graph.VertexID(v)) {
				return fmt.Errorf("bench: epoch wave delete (%d,%d) not present", u, v)
			}
		} else {
			w.live[key] = true
			if err := comp.InsertEdge(graph.VertexID(u), graph.VertexID(v), w.dest); err != nil {
				return fmt.Errorf("bench: epoch wave insert: %w", err)
			}
		}
	}
	return nil
}

// addEpochSeries measures the epoch-publication cost on the big-graph
// workload — epoch_publish: apply one wave, then CloneCOW (the serving
// path) — and the end-to-end write throughput of a live daemon under
// closed-loop /updates traffic (serve_write_qps). The ≥5x acceptance
// gate is enforced here against the pinned full-clone baseline: a tree
// where the COW publish has decayed to within 5x of what a deep
// Clone + Compile cost fails the bench run outright rather than
// emitting a quietly regressed number.
func addEpochSeries(rep *PerfReport, add func(string, testing.BenchmarkResult)) error {
	g, comp, err := epochGraph()
	if err != nil {
		return err
	}

	// Warm the composite once: compile everything and cut one snapshot
	// so the timed loop starts from the steady serving state (all
	// fragments compiled and shared, waves thawing only the vertices
	// they touch).
	waver := newEpochWaver(g)
	sink := comp.CloneCOW()
	cow := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := waver.apply(comp); err != nil {
				b.Fatal(err)
			}
			sink = comp.CloneCOW()
		}
	})
	add("epoch_publish", cow)
	if sink == nil {
		return fmt.Errorf("bench: epoch_publish produced no snapshot")
	}

	cowNs := float64(cow.T.Nanoseconds()) / float64(cow.N)
	fullNs := baselineFor(rep, "epoch_publish").NsPerOp
	if cowNs > 0 {
		rep.EpochPublishSpeedup = fullNs / cowNs
	}
	if rep.EpochPublishSpeedup < 5 {
		return fmt.Errorf("bench: epoch_publish speedup %.2fx vs the full-clone baseline is below the 5x acceptance gate (%.2fms vs %.2fms per publish)",
			rep.EpochPublishSpeedup, cowNs/1e6, fullNs/1e6)
	}

	// End-to-end: acked write batches per second through a live daemon.
	if rep.ServeWriteQPS, err = serveWriteQPS(); err != nil {
		return err
	}
	if rep.ServeWriteQPS > 0 {
		rep.Results = append(rep.Results, PerfResult{Name: "serve_write_qps", NsPerOp: 1e9 / rep.ServeWriteQPS})
	}
	return nil
}

// serveWriteQPS boots a daemon over the big epoch graph and drives it
// with closed-loop write-only traffic: 8 workers, each owning a
// disjoint slice of writer-safe edges, posting delete+re-insert
// batches back to back. Returns acked batches per second.
func serveWriteQPS() (float64, error) {
	g, comp, err := epochGraph()
	if err != nil {
		return 0, err
	}
	dir, err := os.MkdirTemp("", "adp-bench-epoch-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Create(dir, comp, store.Options{SyncEvery: 8})
	if err != nil {
		return 0, err
	}
	srv, err := serve.New(st, serve.Config{
		SessionsPerAlgo: 2,
		MaxInflight:     64,
		UpdateQueue:     256,
	})
	if err != nil {
		st.Close()
		return 0, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	srv.Start(l)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Drain(ctx)
	}()
	url := "http://" + l.Addr().String() + "/updates"

	// Writer-safe edges (same rule as serve.RunLoad): both endpoints
	// keep positive base out-degree so PR never divides by zero.
	type edge struct{ u, v graph.VertexID }
	var safe []edge
	g.Edges(func(u, v graph.VertexID) bool {
		if g.OutDegree(u) > 0 && g.OutDegree(v) > 0 {
			safe = append(safe, edge{u, v})
		}
		return len(safe) < 8192
	})
	const workers = 8
	if len(safe) < workers {
		return 0, fmt.Errorf("bench: too few writer-safe edges (%d)", len(safe))
	}
	// Truncate to a multiple of workers so the modular stride below
	// keeps each worker's edge subset disjoint.
	safe = safe[:len(safe)/workers*workers]

	tr := &http.Transport{MaxIdleConns: workers * 2, MaxIdleConnsPerHost: workers * 2}
	client := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	defer tr.CloseIdleConnections()

	post := func(e edge) error {
		body := fmt.Sprintf("- %d %d\n+ %d %d\ncommit\n", e.u, e.v, e.u, e.v)
		resp, err := client.Post(url, "text/plain", bytes.NewBufferString(body))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("bench: /updates status %d", resp.StatusCode)
		}
		return nil
	}

	// Short untimed warmup so both arms measure steady state.
	for i := 0; i < 2*workers; i++ {
		if err := post(safe[i%len(safe)]); err != nil {
			return 0, err
		}
	}

	const measure = 1500 * time.Millisecond
	var (
		acked atomic.Int64
		errCh = make(chan error, workers)
		wg    sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(measure)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Disjoint per-worker edge subset: no two workers ever race
			// on deleting the same arc.
			for i := w; time.Now().Before(deadline); i += workers {
				if err := post(safe[i%len(safe)]); err != nil {
					errCh <- err
					return
				}
				acked.Add(1)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errCh:
		return 0, err
	default:
	}
	if acked.Load() == 0 {
		return 0, fmt.Errorf("bench: no write batches acked")
	}
	return float64(acked.Load()) / elapsed.Seconds(), nil
}
