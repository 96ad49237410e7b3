package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"adp/internal/algorithms"
	"adp/internal/composite"
	"adp/internal/costmodel"
	"adp/internal/engine"
	"adp/internal/gen"
	"adp/internal/graph"
	"adp/internal/partition"
	"adp/internal/partitioner"
	"adp/internal/pool"
	"adp/internal/store"
)

// serveGraph builds the deterministic test graph every serve test runs
// over. Rebuilding it yields an identical graph, which is what lets
// offline oracles replay server state bit-for-bit. Undirected so the
// full algorithm batch (TC included) is servable.
func serveGraph() *graph.Graph {
	return gen.PowerLaw(gen.PowerLawConfig{N: 400, AvgDeg: 6, Exponent: 2.1, Directed: false, Seed: 11})
}

// serveComposite bundles an edge-cut and a vertex-assignment partition
// (K=2, 4 fragments) over g — small enough to clone per epoch swap
// quickly, rich enough that the two partitions disagree on placement.
func serveComposite(t testing.TB, g *graph.Graph) *composite.Composite {
	t.Helper()
	p1, err := partitioner.HashEdgeCut(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	assign := make([]int, g.NumVertices())
	for v := range assign {
		assign[v] = (v + 1) % 4
	}
	p2, err := partition.FromVertexAssignment(g, assign, 4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := composite.New(g, []*partition.Partition{p1, p2})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// testServer wraps a Server listening on loopback with drain-once
// semantics so tests can Drain explicitly and Cleanup stays safe.
type testServer struct {
	*Server
	URL  string
	Dir  string
	g    *graph.Graph
	once sync.Once
	derr error
}

func (ts *testServer) drain() error {
	ts.once.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		ts.derr = ts.Server.Drain(ctx)
	})
	return ts.derr
}

// startServer creates (fresh=true) or reopens a store in dir and serves
// it on a loopback listener. Cleanup drains unless the test already did.
func startServer(t testing.TB, dir string, fresh bool, cfg Config, sopts store.Options) *testServer {
	t.Helper()
	g := serveGraph()
	var comp *composite.Composite
	if fresh {
		comp = serveComposite(t, g)
	}
	return startServerOn(t, dir, g, comp, cfg, sopts)
}

// startServerOn serves an arbitrary graph/composite pair from dir: a
// non-nil comp creates a fresh store over it, nil reopens the store
// already in dir against g. The write-heavy suites use it to run the
// standard serve tests over larger graphs than the default fixture.
func startServerOn(t testing.TB, dir string, g *graph.Graph, comp *composite.Composite, cfg Config, sopts store.Options) *testServer {
	t.Helper()
	var (
		st  *store.Store
		err error
	)
	if comp != nil {
		st, err = store.Create(dir, comp, sopts)
	} else {
		st, _, err = store.Open(dir, g, sopts)
	}
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(st, cfg)
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Start(l)
	ts := &testServer{Server: srv, URL: "http://" + l.Addr().String(), Dir: dir, g: g}
	t.Cleanup(func() { ts.drain() })
	return ts
}

func newServer(t testing.TB, cfg Config) *testServer {
	t.Helper()
	return startServer(t, filepath.Join(t.TempDir(), "store"), true, cfg, store.Options{})
}

// doJSON performs one request and decodes the response into out (when
// non-nil and the status matched okStatus) or into an errorBody
// otherwise, returning (status, errorBody).
func doJSON(t testing.TB, method, url string, body io.Reader, out any) (int, errorBody) {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusOK {
		if out != nil {
			if err := json.Unmarshal(raw, out); err != nil {
				t.Fatalf("decoding %s %s: %v (%s)", method, url, err, raw)
			}
		}
		return resp.StatusCode, errorBody{}
	}
	var eb errorBody
	if err := json.Unmarshal(raw, &eb); err != nil {
		t.Fatalf("decoding error body of %s %s (status %d): %v (%s)", method, url, resp.StatusCode, err, raw)
	}
	return resp.StatusCode, eb
}

func (ts *testServer) postRun(t testing.TB, req runRequest) (int, runResponse, errorBody) {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var rr runResponse
	status, eb := doJSON(t, "POST", ts.URL+"/run", bytes.NewReader(b), &rr)
	return status, rr, eb
}

func (ts *testServer) getVertex(t testing.TB, id int) (int, vertexResponse, errorBody) {
	t.Helper()
	var vr vertexResponse
	status, eb := doJSON(t, "GET", fmt.Sprintf("%s/vertex/%d", ts.URL, id), nil, &vr)
	return status, vr, eb
}

func (ts *testServer) getMetrics(t testing.TB) metricsResponse {
	t.Helper()
	var mr metricsResponse
	if status, eb := doJSON(t, "GET", ts.URL+"/metrics", nil, &mr); status != http.StatusOK {
		t.Fatalf("GET /metrics: status %d (%v)", status, eb)
	}
	return mr
}

func (ts *testServer) postUpdates(t testing.TB, stream string) (int, updatesResponse, errorBody) {
	t.Helper()
	var ur updatesResponse
	status, eb := doJSON(t, "POST", ts.URL+"/updates", strings.NewReader(stream), &ur)
	return status, ur, eb
}

var serveAlgoOpts = algorithms.Options{CNTheta: 2, SSSPSource: 1, PRIterations: 3}

func runReqFor(a costmodel.Algo) runRequest {
	return runRequest{
		Algo:       a.String(),
		Theta:      serveAlgoOpts.CNTheta,
		Source:     uint32(serveAlgoOpts.SSSPSource),
		Iterations: serveAlgoOpts.PRIterations,
	}
}

// TestServeRunMatchesOffline: every algorithm served over HTTP returns
// bitwise the Outcome and deterministic Report an offline run over the
// same pristine composite produces — the serving plane adds transport,
// not noise.
func TestServeRunMatchesOffline(t *testing.T) {
	ts := newServer(t, Config{})
	oracle := serveComposite(t, serveGraph())
	for _, a := range costmodel.Algos() {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			status, rr, eb := ts.postRun(t, runReqFor(a))
			if status != http.StatusOK {
				t.Fatalf("status %d: %+v", status, eb)
			}
			if rr.Epoch != 1 {
				t.Fatalf("epoch %d, want 1", rr.Epoch)
			}
			part := oracle.Partition(algoIndex(a) % oracle.K())
			want, err := algorithms.Run(engine.NewCluster(part).UsePool(pool.Serial()), a, serveAlgoOpts)
			if err != nil {
				t.Fatal(err)
			}
			if rr.Value != want.Value || rr.Checksum != want.Checksum {
				t.Fatalf("outcome (%v,%d) vs offline (%v,%d)", rr.Value, rr.Checksum, want.Value, want.Checksum)
			}
			if rr.Supersteps != want.Report.Supersteps ||
				rr.CriticalWork != want.Report.CriticalWork ||
				rr.CriticalBytes != want.Report.CriticalBytes ||
				rr.MsgBytes != want.Report.TotalMsgBytes() {
				t.Fatalf("report (%d,%v,%v,%d) vs offline (%d,%v,%v,%d)",
					rr.Supersteps, rr.CriticalWork, rr.CriticalBytes, rr.MsgBytes,
					want.Report.Supersteps, want.Report.CriticalWork, want.Report.CriticalBytes, want.Report.TotalMsgBytes())
			}
		})
	}
}

// TestServeBadRequests: malformed input maps to 400 bad_request, never
// a 500 or a hang.
func TestServeBadRequests(t *testing.T) {
	ts := newServer(t, Config{})
	cases := []struct {
		name   string
		status int
		class  string
		do     func(t *testing.T) (int, errorBody)
	}{
		{"unknown algo", 400, "bad_request", func(t *testing.T) (int, errorBody) {
			s, _, eb := ts.postRun(t, runRequest{Algo: "nope"})
			return s, eb
		}},
		{"run body not json", 400, "bad_request", func(t *testing.T) (int, errorBody) {
			s, eb := doJSON(t, "POST", ts.URL+"/run", strings.NewReader("{"), nil)
			return s, eb
		}},
		{"vertex not a number", 400, "bad_request", func(t *testing.T) (int, errorBody) {
			s, eb := doJSON(t, "GET", ts.URL+"/vertex/abc", nil, nil)
			return s, eb
		}},
		{"vertex out of range", 400, "bad_request", func(t *testing.T) (int, errorBody) {
			s, _, eb := ts.getVertex(t, ts.g.NumVertices()+5)
			return s, eb
		}},
		{"empty update stream", 400, "bad_request", func(t *testing.T) (int, errorBody) {
			s, _, eb := ts.postUpdates(t, "# nothing\n")
			return s, eb
		}},
		{"bad update grammar", 400, "bad_request", func(t *testing.T) (int, errorBody) {
			s, _, eb := ts.postUpdates(t, "x 1 2\n")
			return s, eb
		}},
		// Well-formed but unappliable: refused before the apply loop, so
		// the store stays healthy and the valid batch after each one acks.
		{"update vertex out of range", 400, "bad_request", func(t *testing.T) (int, errorBody) {
			s, _, eb := ts.postUpdates(t, "+ 999999 1\ncommit\n")
			return s, eb
		}},
		{"update destination arity", 400, "bad_request", func(t *testing.T) (int, errorBody) {
			s, _, eb := ts.postUpdates(t, "+ 1 2 0\ncommit\n")
			return s, eb
		}},
		{"update destination out of range", 400, "bad_request", func(t *testing.T) (int, errorBody) {
			s, _, eb := ts.postUpdates(t, "+ 1 2 0 9\ncommit\n")
			return s, eb
		}},
	}
	var u, v graph.VertexID
	ts.g.Edges(func(a, b graph.VertexID) bool { u, v = a, b; return false })
	valid := fmt.Sprintf("- %d %d\n+ %d %d\ncommit\n", u, v, u, v)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, eb := tc.do(t)
			if status != tc.status || eb.Class != tc.class {
				t.Fatalf("got status %d class %q, want %d %q (%s)", status, eb.Class, tc.status, tc.class, eb.Error)
			}
			if status, ur, eb := ts.postUpdates(t, valid); status != http.StatusOK || !ur.Visible {
				t.Fatalf("a valid batch after it: status %d visible %v (%s)", status, ur.Visible, eb.Error)
			}
		})
	}
}

// TestServeRunTimeout: a deadline that cannot fit the run surfaces as
// 504/timeout with the typed engine error's partial superstep count —
// not a connection reset, not a 500.
func TestServeRunTimeout(t *testing.T) {
	ts := newServer(t, Config{})
	status, _, eb := ts.postRun(t, runRequest{Algo: "PR", Iterations: 100000, TimeoutMS: 1})
	if status != http.StatusGatewayTimeout || eb.Class != "timeout" {
		t.Fatalf("got status %d class %q (%s), want 504 timeout", status, eb.Class, eb.Error)
	}
	if eb.Reason == "" {
		t.Fatal("timeout error carries no engine reason")
	}
}

// TestServeVertexMatchesPartition: the lookup endpoint reports exactly
// what the pristine composite says about placement, status and
// adjacency.
func TestServeVertexMatchesPartition(t *testing.T) {
	ts := newServer(t, Config{})
	oracle := serveComposite(t, serveGraph())
	for _, id := range []int{0, 1, 7, 63, ts.g.NumVertices() - 1} {
		status, vr, eb := ts.getVertex(t, id)
		if status != http.StatusOK {
			t.Fatalf("vertex %d: status %d (%v)", id, status, eb)
		}
		if vr.Epoch != 1 || int(vr.Vertex) != id {
			t.Fatalf("vertex %d: header (%d,%d)", id, vr.Epoch, vr.Vertex)
		}
		if len(vr.Partitions) != oracle.K() {
			t.Fatalf("vertex %d: %d partitions, want %d", id, len(vr.Partitions), oracle.K())
		}
		v := graph.VertexID(id)
		for j, pl := range vr.Partitions {
			p := oracle.Partition(j)
			if pl.Master != p.Master(v) {
				t.Fatalf("vertex %d p%d: master %d vs %d", id, j, pl.Master, p.Master(v))
			}
			copies := p.Copies(v)
			if len(pl.Copies) != len(copies) {
				t.Fatalf("vertex %d p%d: %d copies vs %d", id, j, len(pl.Copies), len(copies))
			}
			for ci, c := range copies {
				if pl.Copies[ci] != int(c) || pl.Status[ci] != p.Status(int(c), v).String() {
					t.Fatalf("vertex %d p%d copy %d: (%d,%q) vs (%d,%q)",
						id, j, ci, pl.Copies[ci], pl.Status[ci], c, p.Status(int(c), v).String())
				}
			}
			at := p.CompleteFragment(v)
			if at < 0 {
				at = p.Master(v)
			}
			adj := p.Fragment(at).Adjacency(v)
			wantOut, wantIn := 0, 0
			if adj != nil {
				wantOut, wantIn = len(adj.Out), len(adj.In)
			}
			if pl.OutDegree != wantOut || pl.InDegree != wantIn || len(pl.Out) != wantOut {
				t.Fatalf("vertex %d p%d: degrees (%d,%d,%d) vs (%d,%d)", id, j, pl.OutDegree, pl.InDegree, len(pl.Out), wantOut, wantIn)
			}
			for oi := range pl.Out {
				if graph.VertexID(pl.Out[oi]) != adj.Out[oi] {
					t.Fatalf("vertex %d p%d: out[%d] = %d vs %d", id, j, oi, pl.Out[oi], adj.Out[oi])
				}
			}
		}
	}
}

// TestServeMetrics: shape and sanity of the stats endpoint on a fresh
// epoch.
func TestServeMetrics(t *testing.T) {
	ts := newServer(t, Config{})
	mr := ts.getMetrics(t)
	if mr.Epoch != 1 || mr.K != 2 || mr.N != 4 {
		t.Fatalf("header (epoch=%d k=%d n=%d), want (1,2,4)", mr.Epoch, mr.K, mr.N)
	}
	if mr.FC <= 0 || mr.StorageArcs <= 0 {
		t.Fatalf("fc=%v storage_arcs=%d, want positive", mr.FC, mr.StorageArcs)
	}
	if len(mr.Algorithms) != len(costmodel.Algos()) {
		t.Fatalf("%d algorithm rows, want %d", len(mr.Algorithms), len(costmodel.Algos()))
	}
	for _, am := range mr.Algorithms {
		if am.ParallelCost <= 0 || am.FV <= 0 {
			t.Fatalf("algo %s: cost=%v fv=%v, want positive", am.Algo, am.ParallelCost, am.FV)
		}
	}
	if mr.Store.Failed || mr.Server.Draining {
		t.Fatal("fresh server reports failure/draining")
	}
}

// pickLiveEdge returns a served edge whose endpoints keep positive base
// out-degree — safe to delete and re-insert under PR (which divides by
// base out-degree).
func pickLiveEdge(t testing.TB, g *graph.Graph) (graph.VertexID, graph.VertexID) {
	t.Helper()
	var eu, ev graph.VertexID
	found := false
	g.Edges(func(u, v graph.VertexID) bool {
		if g.OutDegree(u) > 0 && g.OutDegree(v) > 0 {
			eu, ev, found = u, v, true
			return false
		}
		return true
	})
	if !found {
		t.Fatal("no safe edge in test graph")
	}
	return eu, ev
}

// TestServeUpdatesPublishEpochs: a durable update batch bumps the
// epoch, becomes visible to subsequent reads, and the ack carries the
// store's new LSN.
func TestServeUpdatesPublishEpochs(t *testing.T) {
	ts := newServer(t, Config{})
	u, v := pickLiveEdge(t, ts.g)
	_, before, _ := ts.getVertex(t, int(u))

	status, ur, eb := ts.postUpdates(t, fmt.Sprintf("- %d %d\ncommit\n", u, v))
	if status != http.StatusOK {
		t.Fatalf("updates: status %d (%v)", status, eb)
	}
	if ur.Epoch != 2 || !ur.Durable || !ur.Visible || ur.Deletes != 1 || ur.Inserts != 0 {
		t.Fatalf("ack %+v, want epoch 2, durable+visible, 1 delete", ur)
	}
	if ts.Epoch() != 2 {
		t.Fatalf("server epoch %d, want 2", ts.Epoch())
	}
	_, after, _ := ts.getVertex(t, int(u))
	if after.Epoch != 2 {
		t.Fatalf("read epoch %d, want 2", after.Epoch)
	}
	dropped := false
	for j := range after.Partitions {
		if after.Partitions[j].OutDegree < before.Partitions[j].OutDegree {
			dropped = true
		}
		for _, w := range after.Partitions[j].Out {
			if graph.VertexID(w) == v {
				t.Fatalf("deleted arc (%d,%d) still served in partition %d", u, v, j)
			}
		}
	}
	if !dropped {
		t.Fatalf("delete of (%d,%d) changed no partition's out-degree", u, v)
	}

	status, ur2, eb := ts.postUpdates(t, fmt.Sprintf("+ %d %d\ncommit\n", u, v))
	if status != http.StatusOK || ur2.Epoch != 3 || ur2.Inserts != 1 {
		t.Fatalf("re-insert: status %d ack %+v (%v)", status, ur2, eb)
	}
	if ur2.LSN <= ur.LSN {
		t.Fatalf("LSN did not advance: %d then %d", ur.LSN, ur2.LSN)
	}
	mr := ts.getMetrics(t)
	if mr.Store.LSN != ur2.LSN || mr.Server.EpochSwaps != 2 {
		t.Fatalf("metrics lsn=%d swaps=%d, want lsn=%d swaps=2", mr.Store.LSN, mr.Server.EpochSwaps, ur2.LSN)
	}
}

// TestServeMinLSN holds the read-your-writes contract on one node: after
// an acked /updates at LSN L, a read with min_lsn <= L is served from an
// epoch covering L, and one asking for more is a typed 412 naming both
// sides of the gap.
func TestServeMinLSN(t *testing.T) {
	ts := newServer(t, Config{})
	u, v := pickLiveEdge(t, ts.g)
	status, ur, eb := ts.postUpdates(t, fmt.Sprintf("- %d %d\n+ %d %d\ncommit\n", u, v, u, v))
	if status != http.StatusOK || !ur.Visible {
		t.Fatalf("updates: status %d ack %+v (%v)", status, ur, eb)
	}
	lsn := ur.LSN

	var vr vertexResponse
	if status, eb := doJSON(t, "GET", fmt.Sprintf("%s/vertex/1?min_lsn=%d", ts.URL, lsn), nil, &vr); status != http.StatusOK {
		t.Fatalf("fresh-enough vertex read: status %d (%v)", status, eb)
	}
	if vr.EpochLSN != lsn {
		t.Fatalf("vertex epoch_lsn %d, want %d", vr.EpochLSN, lsn)
	}
	status, eb = doJSON(t, "GET", fmt.Sprintf("%s/vertex/1?min_lsn=%d", ts.URL, lsn+5), nil, nil)
	if status != http.StatusPreconditionFailed || eb.Class != "stale" {
		t.Fatalf("stale vertex read: status %d class %q", status, eb.Class)
	}
	if eb.MinLSN != lsn+5 || eb.AppliedLSN != lsn {
		t.Fatalf("stale error carries (min %d, applied %d), want (%d, %d)", eb.MinLSN, eb.AppliedLSN, lsn+5, lsn)
	}
	if status, eb := doJSON(t, "GET", ts.URL+"/vertex/1?min_lsn=bogus", nil, nil); status != http.StatusBadRequest || eb.Class != "bad_request" {
		t.Fatalf("bogus min_lsn: status %d class %q", status, eb.Class)
	}

	req := runReqFor(costmodel.WCC)
	req.MinLSN = lsn
	if status, _, eb := ts.postRun(t, req); status != http.StatusOK {
		t.Fatalf("fresh-enough run: status %d (%v)", status, eb)
	}
	req.MinLSN = lsn + 1
	if status, _, eb := ts.postRun(t, req); status != http.StatusPreconditionFailed || eb.Class != "stale" {
		t.Fatalf("stale run: status %d class %q", status, eb.Class)
	}
}

// TestServeAdmissionControl: more concurrent runs than MaxInflight gets
// 429s, never queue collapse; the admitted requests all succeed.
func TestServeAdmissionControl(t *testing.T) {
	ts := newServer(t, Config{MaxInflight: 2, SessionsPerAlgo: 1})
	const clients = 8
	var ok, rejected, other int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, _ := json.Marshal(runRequest{Algo: "WCC"})
			resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(b))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			mu.Lock()
			switch resp.StatusCode {
			case http.StatusOK:
				ok++
			case http.StatusTooManyRequests:
				rejected++
			default:
				other++
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if other != 0 {
		t.Fatalf("%d unexpected statuses", other)
	}
	if ok == 0 {
		t.Fatal("no run admitted")
	}
	// Re-run sequentially: everything admitted now.
	status, _, eb := ts.postRun(t, runRequest{Algo: "WCC"})
	if status != http.StatusOK {
		t.Fatalf("post-burst run: status %d (%v)", status, eb)
	}
	t.Logf("burst: %d ok, %d rejected", ok, rejected)
}
