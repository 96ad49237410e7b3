package serve

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"adp/internal/composite"
	"adp/internal/fault"
	"adp/internal/gen"
	"adp/internal/graph"
	"adp/internal/partition"
	"adp/internal/partitioner"
	"adp/internal/store"
)

// The write-heavy suite drives the COW publication path the way the
// ISSUE's target workload does: updates-dominant traffic, small waves,
// a graph big enough that an O(graph) publish would dominate. CI's
// serve-matrix runs it under -race (the TestServe name prefix matches
// the suite filter); ADP_WRITEHEAVY_LARGE=1 scales the graph up for
// the dedicated write-heavy job.

// writeHeavyGraph builds the write-heavy fixture: 10x the default
// serve graph (40x with ADP_WRITEHEAVY_LARGE=1), 8 fragments, k=2.
func writeHeavyGraph(t testing.TB) (*graph.Graph, *composite.Composite) {
	t.Helper()
	n := 4000
	if os.Getenv("ADP_WRITEHEAVY_LARGE") != "" {
		n = 16000
	}
	g := gen.PowerLaw(gen.PowerLawConfig{N: n, AvgDeg: 6, Exponent: 2.1, Directed: false, Seed: 17})
	p1, err := partitioner.HashEdgeCut(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	assign := make([]int, g.NumVertices())
	for v := range assign {
		assign[v] = (v + 1) % 8
	}
	p2, err := partition.FromVertexAssignment(g, assign, 8)
	if err != nil {
		t.Fatal(err)
	}
	c, err := composite.New(g, []*partition.Partition{p1, p2})
	if err != nil {
		t.Fatal(err)
	}
	return g, c
}

// writeHeavyBatches builds numBatches small delete/re-insert waves
// over distinct safe edges of g, returning both the parsed mutations
// (for oracle replay) and the wire streams.
func writeHeavyBatches(t testing.TB, g *graph.Graph, numBatches, waveSize int) (batches [][]store.Mutation, streams []string) {
	t.Helper()
	type edge struct{ u, v graph.VertexID }
	var safe []edge
	g.Edges(func(u, v graph.VertexID) bool {
		if u < v && g.OutDegree(u) > 0 && g.OutDegree(v) > 0 {
			safe = append(safe, edge{u, v})
		}
		return len(safe) < numBatches*waveSize
	})
	if len(safe) < numBatches*waveSize {
		t.Fatalf("only %d safe edges for %d batches of %d", len(safe), numBatches, waveSize)
	}
	for i := 0; i < numBatches; i++ {
		var s string
		for m := 0; m < waveSize; m++ {
			e := safe[i*waveSize+m]
			// Delete then re-insert in the SAME batch: the edge set is
			// unchanged at every epoch boundary, but the touched
			// fragments churn — the pure COW overwrite pattern.
			s += fmt.Sprintf("- %d %d\n+ %d %d\n", e.u, e.v, e.u, e.v)
		}
		s += "commit\n"
		muts, err := store.ParseUpdates(strings.NewReader(s))
		if err != nil {
			t.Fatal(err)
		}
		batches = append(batches, muts)
		streams = append(streams, s)
	}
	return batches, streams
}

// TestServeWriteHeavyIsolation is the updates-dominant isolation
// suite: one writer saturates /updates with small waves on the large
// graph while readers sample vertices; every response must match an
// offline oracle replay of its epoch's prefix, /metrics must show the
// published epochs actually sharing most fragments, and a drain +
// reopen must recover exactly the acked state.
func TestServeWriteHeavyIsolation(t *testing.T) {
	g, comp := writeHeavyGraph(t)
	dir := filepath.Join(t.TempDir(), "store")
	ts := startServerOn(t, dir, g, comp, Config{SessionsPerAlgo: 2, MaxInflight: 64, UpdateQueue: 64}, store.Options{})

	const (
		numBatches = 24
		waveSize   = 3
	)
	batches, streams := writeHeavyBatches(t, g, numBatches, waveSize)

	// Sample vertices: the endpoints the waves touch.
	var sampleIDs []int
	for _, b := range batches {
		sampleIDs = append(sampleIDs, int(b[0].U), int(b[0].V))
	}

	type vertKey struct {
		epoch uint64
		id    int
	}
	var (
		obsMu   sync.Mutex
		vertObs = map[vertKey]vertexResponse{}
	)
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	for r := 0; r < 2; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := sampleIDs[(r*13+i)%len(sampleIDs)]
				i++
				status, vr, _ := ts.getVertex(t, id)
				if status == http.StatusOK {
					obsMu.Lock()
					k := vertKey{vr.Epoch, int(vr.Vertex)}
					if _, ok := vertObs[k]; !ok {
						vertObs[k] = vr
					}
					obsMu.Unlock()
				}
			}
		}(r)
	}

	// Updates-dominant writer: back-to-back batches, one wave each (a
	// lone writer has no batch to share a wave with), so readers sample
	// distinct epochs.
	prefixByEpoch := map[uint64]int{1: 0}
	for i := 0; i < numBatches; i++ {
		status, ur, eb := ts.postUpdates(t, streams[i])
		if status != http.StatusOK {
			t.Fatalf("batch %d: status %d (%v)", i, status, eb)
		}
		if !ur.Visible {
			t.Fatalf("batch %d: durable but not visible: %+v", i, ur)
		}
		prefixByEpoch[ur.Epoch] = i + 1
		if i%4 == 3 {
			time.Sleep(2 * time.Millisecond)
		}
	}

	// The sharing contract, observed not assumed: after small waves on
	// 8-fragment partitions the last publish must have shared most
	// fragments, and the newly materialized bytes
	// must be a strict minority of the epoch's resident size.
	mr := ts.getMetrics(t)
	em := mr.Epochs
	if em.SharedFragments <= em.OwnedFragments {
		t.Errorf("COW publish shared %d fragments vs %d owned; small waves should share the majority", em.SharedFragments, em.OwnedFragments)
	}
	if em.ApproxBytes <= 0 || em.ApproxNewBytes <= 0 || em.ApproxNewBytes*2 >= em.ApproxBytes {
		t.Errorf("epoch memory accounting implausible: new=%d total=%d", em.ApproxNewBytes, em.ApproxBytes)
	}
	if em.Retained < 1 {
		t.Errorf("epochs retained = %d, want >= 1", em.Retained)
	}

	close(stop)
	readerWG.Wait()

	// Oracle: replay each epoch's prefix and check every recorded
	// vertex observation bitwise.
	_, oracle := writeHeavyGraph(t)
	epochs := make([]uint64, 0, len(prefixByEpoch))
	for e := range prefixByEpoch {
		epochs = append(epochs, e)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	checked, prefix := 0, 0
	for _, e := range epochs {
		replayPrefix(t, oracle, batches, prefix, prefixByEpoch[e])
		prefix = prefixByEpoch[e]
		for k, vr := range vertObs {
			if k.epoch != e {
				continue
			}
			v := graph.VertexID(k.id)
			for j := 0; j < oracle.K(); j++ {
				p, pl := oracle.Partition(j), vr.Partitions[j]
				if pl.Master != p.Master(v) || len(pl.Copies) != len(p.Copies(v)) {
					t.Errorf("epoch %d vertex %d p%d: placement (%d,%d copies) vs offline (%d,%d)",
						e, k.id, j, pl.Master, len(pl.Copies), p.Master(v), len(p.Copies(v)))
				}
				at := p.CompleteFragment(v)
				if at < 0 {
					at = p.Master(v)
				}
				adj := p.Fragment(at).Adjacency(v)
				wantOut := 0
				if adj != nil {
					wantOut = len(adj.Out)
				}
				if pl.OutDegree != wantOut {
					t.Errorf("epoch %d vertex %d p%d: out-degree %d vs offline %d", e, k.id, j, pl.OutDegree, wantOut)
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no vertex observations verified")
	}

	// Drain, reopen, and compare the recovered composite against the
	// full oracle replay — the durable state the COW path must leave
	// behind is exactly what a clean sequential apply produces.
	replayPrefix(t, oracle, batches, prefix, numBatches)
	if err := ts.drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	st, info, err := store.Open(dir, g, store.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st.Close()
	if info.Replayed == 0 {
		t.Error("reopen replayed nothing; expected a committed log")
	}
	if err := st.Composite().EqualState(oracle); err != nil {
		t.Fatalf("recovered state diverges from oracle: %v", err)
	}
	t.Logf("verified %d vertex observations across %d epochs; last publish shared %d/%d fragments",
		checked, len(epochs), em.SharedFragments, em.SharedFragments+em.OwnedFragments)
}

// TestServeWriteHeavyChaos runs the same updates-dominant workload
// with engine faults injected into every /run session: reader crashes
// and stragglers must never perturb the write path or the published
// epochs, and the drained store must still recover to the exact acked
// state.
func TestServeWriteHeavyChaos(t *testing.T) {
	g, comp := writeHeavyGraph(t)
	dir := filepath.Join(t.TempDir(), "store")
	runInj := fault.NewInjector(
		fault.Event{Kind: fault.Crash, Superstep: 1, Worker: 0},
		fault.Event{Kind: fault.Transient, Superstep: 2, Worker: 1},
		fault.Event{Kind: fault.Straggler, Superstep: 1, Worker: 2, Delay: time.Millisecond},
	)
	ts := startServerOn(t, dir, g, comp,
		Config{SessionsPerAlgo: 2, MaxInflight: 32, UpdateQueue: 64, RunInjector: runInj},
		store.Options{})

	const (
		numBatches = 16
		waveSize   = 2
	)
	batches, streams := writeHeavyBatches(t, g, numBatches, waveSize)

	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	for r := 0; r < 2; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				a := isolationAlgos[(r+i)%len(isolationAlgos)]
				ts.postRun(t, runReqFor(a)) // faults injected; status may legitimately vary
			}
		}(r)
	}

	lastEpoch := uint64(0)
	for i := 0; i < numBatches; i++ {
		status, ur, eb := ts.postUpdates(t, streams[i])
		if status != http.StatusOK {
			t.Fatalf("batch %d: status %d (%v)", i, status, eb)
		}
		if !ur.Visible {
			t.Fatalf("batch %d: durable but not visible: %+v", i, ur)
		}
		if ur.Epoch <= lastEpoch {
			t.Fatalf("batch %d: epoch went backwards (%d after %d)", i, ur.Epoch, lastEpoch)
		}
		lastEpoch = ur.Epoch
	}
	close(stop)
	readerWG.Wait()

	if err := ts.drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	_, oracle := writeHeavyGraph(t)
	replayPrefix(t, oracle, batches, 0, numBatches)
	st, _, err := store.Open(dir, g, store.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st.Close()
	if err := st.Composite().EqualState(oracle); err != nil {
		t.Fatalf("recovered state diverges from oracle after chaos: %v", err)
	}
}

// TestServeWavesGather pins how the apply loop forms waves, and no
// clock decides it: batches queued while a wave is in progress are
// acked together in the next wave, a lone writer posting back to back
// gets one wave per batch.
func TestServeWavesGather(t *testing.T) {
	g := serveGraph()
	batches, streams := writeHeavyBatches(t, g, 9, 2)

	// queueBehind holds the apply loop on a wave of one batch whose reply
	// channel is unbuffered, so the loop cannot take the next wave before
	// the test receives that reply. Once the wave has published, the
	// other batches are queued and the loop is released; queueBehind
	// returns the epochs the queued batches were acked in.
	queueBehind := func(ts *testServer, hold []store.Mutation, queued [][]store.Mutation) []uint64 {
		e0 := ts.Epoch()
		held := &updateBatch{muts: hold, reply: make(chan updateResult)}
		ts.updates <- held
		for ts.Epoch() == e0 {
			runtime.Gosched()
		}
		var bs []*updateBatch
		for _, muts := range queued {
			b := &updateBatch{muts: muts, reply: make(chan updateResult, 1)}
			ts.updates <- b
			bs = append(bs, b)
		}
		if res := <-held.reply; res.err != nil || res.epoch != e0+1 {
			t.Fatalf("held batch: epoch %d (want %d), err %v", res.epoch, e0+1, res.err)
		}
		epochs := make([]uint64, len(bs))
		for i, b := range bs {
			res := <-b.reply
			if res.err != nil {
				t.Fatalf("queued batch %d: %v", i, res.err)
			}
			epochs[i] = res.epoch
		}
		return epochs
	}

	ts := startServerOn(t, filepath.Join(t.TempDir(), "store"), g, serveComposite(t, g), Config{}, store.Options{})
	e0 := ts.Epoch()
	for i := 0; i < 5; i++ {
		if status, ur, eb := ts.postUpdates(t, streams[i]); status != http.StatusOK || ur.Epoch != e0+uint64(i)+1 {
			t.Fatalf("lone writer, batch %d: status %d epoch %d, want epoch %d (%v)", i, status, ur.Epoch, e0+uint64(i)+1, eb)
		}
	}
	e0 = ts.Epoch()
	if got := queueBehind(ts, batches[5], batches[6:9]); !slices.Equal(got, []uint64{e0 + 2, e0 + 2, e0 + 2}) {
		t.Errorf("3 batches queued behind a wave were acked in epochs %v, want all in %d", got, e0+2)
	}
}
