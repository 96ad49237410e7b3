package serve

import (
	"fmt"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"adp/internal/algorithms"
	"adp/internal/composite"
	"adp/internal/costmodel"
	"adp/internal/engine"
	"adp/internal/graph"
	"adp/internal/pool"
	"adp/internal/store"
)

// isolationAlgos are the run mix the isolation readers hammer with —
// one label-propagation and one arithmetic workload, both sensitive to
// any adjacency change.
var isolationAlgos = []costmodel.Algo{costmodel.WCC, costmodel.PR}

// replayPrefix applies batches[from:to) to oc exactly the way the
// store's apply loop does: inserts without an explicit destination are
// routed against the composite's state at that point in the sequence,
// so the replay is order-faithful.
func replayPrefix(t *testing.T, oc *composite.Composite, batches [][]store.Mutation, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		for _, m := range batches[i] {
			switch m.Kind {
			case store.MutInsert:
				dest := m.Dest
				if len(dest) == 0 {
					dest = store.RouteDest(oc, m.U, m.V)
				}
				if err := oc.InsertEdge(m.U, m.V, dest); err != nil {
					t.Fatalf("replay batch %d: %v", i, err)
				}
			case store.MutDelete:
				oc.DeleteEdge(m.U, m.V)
			}
		}
	}
}

// TestServeSnapshotIsolation hammers /run and /vertex from many
// goroutines while a writer mutates the store through /updates and
// epochs swap underneath. Every response must be internally consistent
// with exactly one epoch: all observations tagged with epoch E are
// bitwise what an offline replay of the first prefix(E) update batches
// produces — no torn reads, no cross-epoch mixing. Run under -race in
// CI (serve-matrix).
func TestServeSnapshotIsolation(t *testing.T) {
	ts := newServer(t, Config{SessionsPerAlgo: 4, MaxInflight: 64})
	g := ts.g

	// The update script: delete/re-insert waves over distinct safe
	// edges, so consecutive epochs always differ and the mutation mix
	// exercises both route-on-insert and coherent delete.
	type edge struct{ u, v graph.VertexID }
	var safe []edge
	g.Edges(func(u, v graph.VertexID) bool {
		if u < v && g.OutDegree(u) > 0 && g.OutDegree(v) > 0 {
			safe = append(safe, edge{u, v})
		}
		return len(safe) < 64
	})
	if len(safe) < 8 {
		t.Fatalf("only %d safe edges", len(safe))
	}
	const numBatches = 8
	batches := make([][]store.Mutation, numBatches)
	streams := make([]string, numBatches)
	for i := 0; i < numBatches; i++ {
		e := safe[i%len(safe)]
		var s string
		if i%2 == 0 {
			s = fmt.Sprintf("- %d %d\ncommit\n", e.u, e.v)
		} else {
			s = fmt.Sprintf("+ %d %d\ncommit\n", e.u, e.v)
		}
		muts, err := store.ParseUpdates(strings.NewReader(s))
		if err != nil {
			t.Fatal(err)
		}
		batches[i], streams[i] = muts, s
	}

	// Observations, deduplicated per key: the first response wins, any
	// later response with the same key must match it bitwise.
	type runKey struct {
		epoch uint64
		algo  string
	}
	type vertKey struct {
		epoch uint64
		id    int
	}
	var (
		obsMu   sync.Mutex
		runObs  = map[runKey]runResponse{}
		vertObs = map[vertKey]vertexResponse{}
		torn    []string
	)
	recordRun := func(rr runResponse) {
		obsMu.Lock()
		defer obsMu.Unlock()
		k := runKey{rr.Epoch, rr.Algo}
		rr.WallMS = 0 // wall time is not part of the determinism contract
		if prev, ok := runObs[k]; ok {
			if !reflect.DeepEqual(prev, rr) {
				torn = append(torn, fmt.Sprintf("run %v: %+v vs %+v", k, prev, rr))
			}
			return
		}
		runObs[k] = rr
	}
	recordVertex := func(vr vertexResponse) {
		obsMu.Lock()
		defer obsMu.Unlock()
		k := vertKey{vr.Epoch, int(vr.Vertex)}
		if prev, ok := vertObs[k]; ok {
			if !reflect.DeepEqual(prev, vr) {
				torn = append(torn, fmt.Sprintf("vertex %v: %+v vs %+v", k, prev, vr))
			}
			return
		}
		vertObs[k] = vr
	}

	// Readers: half run algorithms, half read vertices touched by the
	// update script (the vertices whose snapshots actually change).
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	for r := 0; r < 3; r++ {
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
				a := isolationAlgos[(r+i)%len(isolationAlgos)]
				i++
				status, rr, _ := ts.postRun(t, runReqFor(a))
				if status == http.StatusOK {
					recordRun(rr)
				}
			}
		}(r)
	}
	for r := 0; r < 3; r++ {
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
				e := safe[(r*31+i)%numBatches]
				i++
				for _, id := range []graph.VertexID{e.u, e.v} {
					status, vr, _ := ts.getVertex(t, int(id))
					if status == http.StatusOK {
						recordVertex(vr)
					}
				}
			}
		}(r)
	}

	// Writer: sequential, so each ack maps one batch prefix to one
	// epoch. prefixByEpoch[E] = number of batches folded into E.
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
		time.Sleep(15 * time.Millisecond) // let readers sample this epoch
	}
	close(stop)
	readerWG.Wait()
	if len(torn) > 0 {
		t.Fatalf("%d torn/inconsistent responses, first: %s", len(torn), torn[0])
	}

	// Offline oracle: replay the pristine composite through the exact
	// batch prefixes and check every recorded observation against the
	// state of its epoch, bitwise.
	oracle := serveComposite(t, serveGraph())
	epochs := make([]uint64, 0, len(prefixByEpoch))
	for e := range prefixByEpoch {
		epochs = append(epochs, e)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })

	checkedRuns, checkedVerts, prefix := 0, 0, 0
	for _, e := range epochs {
		replayPrefix(t, oracle, batches, prefix, prefixByEpoch[e])
		prefix = prefixByEpoch[e]
		for _, a := range isolationAlgos {
			rr, ok := runObs[runKey{e, a.String()}]
			if !ok {
				continue
			}
			part := oracle.Partition(algoIndex(a) % oracle.K()).Clone().Compile()
			want, err := algorithms.Run(engine.NewCluster(part).UsePool(pool.Serial()), a, serveAlgoOpts)
			if err != nil {
				t.Fatal(err)
			}
			if rr.Value != want.Value || rr.Checksum != want.Checksum ||
				rr.Supersteps != want.Report.Supersteps ||
				rr.CriticalWork != want.Report.CriticalWork ||
				rr.CriticalBytes != want.Report.CriticalBytes ||
				rr.MsgBytes != want.Report.TotalMsgBytes() {
				t.Errorf("epoch %d %s: served (%v,%d,steps=%d,cw=%v,cb=%v,mb=%d) vs offline (%v,%d,steps=%d,cw=%v,cb=%v,mb=%d)",
					e, a, rr.Value, rr.Checksum, rr.Supersteps, rr.CriticalWork, rr.CriticalBytes, rr.MsgBytes,
					want.Value, want.Checksum, want.Report.Supersteps, want.Report.CriticalWork, want.Report.CriticalBytes, want.Report.TotalMsgBytes())
			}
			checkedRuns++
		}
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
					continue
				}
				for oi := range pl.Out {
					if graph.VertexID(pl.Out[oi]) != adj.Out[oi] {
						t.Errorf("epoch %d vertex %d p%d: out[%d] = %d vs offline %d", e, k.id, j, oi, pl.Out[oi], adj.Out[oi])
						break
					}
				}
			}
			checkedVerts++
		}
	}
	if checkedRuns == 0 || checkedVerts == 0 {
		t.Fatalf("coverage too thin: %d run and %d vertex observations verified", checkedRuns, checkedVerts)
	}
	t.Logf("verified %d run and %d vertex observations across %d epochs", checkedRuns, checkedVerts, len(epochs))
}
