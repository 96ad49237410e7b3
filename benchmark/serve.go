package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// The two serving workloads. Every client of adserve waits for its
// reply before it sends again, so both are closed loops with a stated
// number of connections (at most nproc = 2 on the reference box); the
// load generator shares the process with the daemon and runs exactly
// one goroutine per connection. The reads of serve_read use a single
// connection: a /vertex round trip is some 40 us of processor time, so
// 2 connections keep both cores of the box busy and every share of a
// core the host takes away shows in the latency (25 % between runs of
// the same code under interference, against 5 % on 1 connection).

// Operations per second of run at HEAD on the reference box, full
// profile, chosen so that the phases of a workload add up to --seconds.
const (
	readBatchesPerSecond  = 5.0    // serve_read phase A: run batches, 1 connection
	readVertexPerSecond   = 6000.0 // serve_read phase B: GET /vertex, 1 connection
	writeAcksPerSecond    = 3.0    // serve_write: acked /updates batches, per connection
	writeBatchesPerSecond = 2.4    // serve_write phase C: run batches, 1 connection
	warmupWaves           = 12     // serve_write: untimed /updates batches per set-up
	warmupReads           = 200    // serve_read: untimed GET /vertex per set-up
	edgesPerUpdate        = 4      // each deleted and re-inserted: 8 mutations
	conns                 = 2      // connections of the serve_write updates
)

// ---- the daemon and its client ----

type daemon struct {
	g   *Graph
	srv *Server
	dir string
	cl  *client
}

// startDaemon builds the ME2H-over-Fennel composite of the seeded
// graph, creates a store over it and serves it on a loopback port.
func (r *run) startDaemon(g *Graph) (*daemon, error) {
	comp, err := buildServedComposite(g)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(r.tmp, "store-")
	if err != nil {
		return nil, err
	}
	st, err := createStore(dir, comp)
	if err != nil {
		return nil, err
	}
	srv, url, err := startServer(st)
	if err != nil {
		st.Close()
		return nil, err
	}
	return &daemon{g: g, srv: srv, dir: dir, cl: newClient(url)}, nil
}

func buildServedComposite(g *Graph) (*Composite, error) {
	base, err := fennelEdgeCut(g)
	if err != nil {
		return nil, err
	}
	comp, _, err := buildME2H(base, referenceModels())
	return comp, err
}

func (d *daemon) close() error {
	d.cl.close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := drainServer(ctx, d.srv); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	return os.RemoveAll(d.dir)
}

type client struct {
	base string
	tr   *http.Transport
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}
	return &client{base: base, tr: tr, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// do sends one request and reads the whole reply; the returned time
// covers both. A status other than 200 is an error (429 included: a
// refused request is a failed one).
func (c *client) do(method, path, body string) ([]byte, time.Duration, error) {
	req, err := http.NewRequest(method, c.base+path, strings.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, d, nil
}

// sender is a route a request can take: (*client).do, or viaHandler.
type sender func(method, path, body string) ([]byte, time.Duration, error)

// viaHandler sends requests through the daemon's handler on a recorder:
// the HTTP route minus the transport.
func viaHandler(h http.Handler) sender {
	return func(method, path, body string) ([]byte, time.Duration, error) {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		d := time.Since(t0)
		if rec.Code != http.StatusOK {
			return nil, 0, fmt.Errorf("handler %s %s: status %d", method, path, rec.Code)
		}
		return rec.Body.Bytes(), d, nil
	}
}

type runReply struct {
	Algo       string  `json:"algo"`
	Value      float64 `json:"value"`
	Checksum   uint64  `json:"checksum"`
	Supersteps int     `json:"supersteps"`
	MsgBytes   int64   `json:"msg_bytes"`
	WallMS     float64 `json:"wall_ms"`
}

type vertexReply struct {
	EpochLSN   uint64 `json:"epoch_lsn"`
	Vertex     uint32 `json:"vertex"`
	Partitions []struct {
		Copies    []int    `json:"copies"`
		Master    int      `json:"master"`
		Status    []string `json:"status"`
		OutDegree int      `json:"out_degree"`
		Out       []uint32 `json:"out"`
	} `json:"partitions"`
}

type ackReply struct {
	LSN       uint64 `json:"lsn"`
	Inserts   int    `json:"inserts"`
	Deletes   int    `json:"deletes"`
	Durable   bool   `json:"durable"`
	Visible   bool   `json:"visible"`
	Mutations int    `json:"mutations"`
}

type metricsReply struct {
	Server struct {
		Rejected int64 `json:"runs_rejected"`
	} `json:"server"`
	Epochs struct {
		LastPublishNS  int64 `json:"last_publish_ns"`
		OwnedFragments int   `json:"owned_fragments"`
		ApproxNewBytes int64 `json:"approx_new_bytes"`
	} `json:"epochs"`
}

func runBody(a Algo) string {
	return fmt.Sprintf(`{"algo":%q,"iterations":%d,"source":%d}`, a.String(), algoOpts.PRIterations, algoOpts.SSSPSource)
}

// postRunBatch posts /run for the five algorithms back to back on one
// connection, the paper's "batch of k algorithms", and returns the
// batch's wall time and the engine wall the daemon itself reported.
func (r *run) postRunBatch(send sender, seq []outcome) (wall time.Duration, engineMS float64, err error) {
	for ai, a := range algos() {
		b, d, err := send(http.MethodPost, "/run", runBody(a))
		r.attempt()
		if err != nil {
			r.fail("%v", err)
			return 0, 0, err
		}
		wall += d
		// The /run oracle: the reply carries the sequential outcome of
		// its algorithm on the graph.
		var rep runReply
		if err := json.Unmarshal(b, &rep); err != nil {
			r.check(false, "/run reply: %v", err)
			continue
		}
		r.checkOutcome("/run "+rep.Algo, outcome{Value: rep.Value, Checksum: rep.Checksum}, seq[ai])
		engineMS += rep.WallMS
	}
	return wall, engineMS, nil
}

// checkVertex is the /vertex oracle: the placement must be consistent
// and the neighborhood must be the graph's; when wantOut >= 0 a copy
// that holds every arc of the vertex must show that out-neighbor.
func (r *run) checkVertex(body []byte, g *Graph, v uint32, minLSN uint64, wantOut int64) {
	var rep vertexReply
	if err := json.Unmarshal(body, &rep); err != nil {
		r.check(false, "/vertex reply: %v", err)
		return
	}
	ok := rep.Vertex == v && len(rep.Partitions) == len(algos()) && rep.EpochLSN >= minLSN
	nbrs := outNeighbors(g, int(v))
	for _, p := range rep.Partitions {
		complete, hasMaster := false, false
		for i, c := range p.Copies {
			hasMaster = hasMaster || c == p.Master
			complete = complete || (i < len(p.Status) && p.Status[i] == "e-cut")
		}
		ok = ok && hasMaster && p.OutDegree == len(p.Out) && len(p.Out) <= len(nbrs)
		seen := false
		for _, u := range p.Out {
			i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= u })
			ok = ok && i < len(nbrs) && nbrs[i] == u
			seen = seen || int64(u) == wantOut
		}
		if complete {
			ok = ok && len(p.Out) == len(nbrs) && (wantOut < 0 || seen)
		}
	}
	r.check(ok, "/vertex/%d (min_lsn %d): reply does not match the graph: %s", v, minLSN, bytes.TrimSpace(body))
}

// closedLoop runs perConn operations on each of n connections, one
// goroutine per connection, and returns every latency in seconds and
// the wall time of the whole.
func closedLoop(n, perConn int, op func(conn, i int) (time.Duration, error)) (lat []float64, wall float64, err error) {
	perC := make([][]float64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perConn && errs[c] == nil; i++ {
				var d time.Duration
				if d, errs[c] = op(c, i); errs[c] == nil {
					perC[c] = append(perC[c], sec(d))
				}
			}
		}(c)
	}
	wg.Wait()
	wall = sec(time.Since(t0))
	for c := range perC {
		if errs[c] != nil {
			return nil, 0, errs[c]
		}
		lat = append(lat, perC[c]...)
	}
	return lat, wall, nil
}

// served is what the two serving workloads share: the daemon, the
// oracle of its graph, and the engine's simulated cost of the five
// algorithms on the unrefined Fennel base, the denominator of
// quality_ratio.
type served struct {
	d       *daemon
	seq     []outcome
	baseSim []float64
}

// start builds the seeded graph and its daemon. The graph is the same
// every round, so its oracle is computed once.
func (s *served) start(r *run) error {
	g := genPowerLaw(r.cfg.prof.n, false, r.cfg.seed)
	var err error
	if s.d, err = r.startDaemon(g); err != nil {
		return err
	}
	if s.seq == nil {
		for _, a := range algos() {
			s.seq = append(s.seq, seqOutcome(g, a))
		}
		if r.cfg.breakOracle {
			s.seq[2].Checksum ^= 1
		}
	}
	return nil
}

func (s *served) tearDown() error {
	if s.d == nil {
		return nil
	}
	d := s.d
	s.d = nil
	return d.close()
}

// quality samples quality_ratio and storage_ratio of the composite the
// daemon serves now, and returns a warm cluster per algorithm over the
// served partitions.
func (s *served) quality(r *run) ([]*Cluster, error) {
	if s.baseSim == nil {
		base, err := fennelEdgeCut(s.d.g)
		if err != nil {
			return nil, err
		}
		c := newCluster(base, false)
		for _, a := range algos() {
			out, err := runAlgo(c, a)
			if err != nil {
				return nil, err
			}
			s.baseSim = append(s.baseSim, out.SimCost)
		}
	}
	comp := currentComposite(s.d.srv)
	var ratios []float64
	var clusters []*Cluster
	for j, a := range algos() {
		c := newCluster(compositePart(comp, j), false)
		out, err := runAlgo(c, a)
		if err != nil {
			return nil, err
		}
		r.checkOutcome(fmt.Sprintf("served partition %d", j), out, s.seq[j])
		ratios = append(ratios, out.SimCost/s.baseSim[j])
		clusters = append(clusters, c)
	}
	r.sample("quality_ratio", geoMean(ratios))
	r.sample("storage_ratio", compositeFC(comp))
	return clusters, nil
}

// runBatches is n run batches on 1 connection, sampled as series.
func (s *served) runBatches(r *run, n int, series string) (wall float64, err error) {
	lat, wall, err := closedLoop(1, n, func(_, i int) (time.Duration, error) {
		id := r.tr.start("client", "http_run_batch", -1, i)
		d, _, err := r.postRunBatch(s.d.cl.do, s.seq)
		r.tr.stop(id)
		return d, err
	})
	for _, v := range lat {
		r.sample(series, v)
	}
	return wall, err
}

// ---- serve_read ----

type serveRead struct {
	served
	clusters []*Cluster
}

func (w *serveRead) setUp(r *run) error {
	if err := w.start(r); err != nil {
		return err
	}
	if _, _, err := r.postRunBatch(w.d.cl.do, w.seq); err != nil {
		return err
	}
	for i := 0; i < warmupReads; i++ {
		if _, _, err := w.d.cl.do(http.MethodGet, fmt.Sprintf("/vertex/%d", i), ""); err != nil {
			return err
		}
	}
	return nil
}

func (w *serveRead) vertexReads(r *run) int {
	return max(r.cfg.opsPerRound(readVertexPerSecond), 8)
}

// vertexIDs is the seeded uniform id sequence of one round.
func (w *serveRead) vertexIDs(r *run) *rand.Rand {
	return rand.New(rand.NewSource(r.cfg.seed*1000 + int64(r.round)))
}

func (w *serveRead) measure(r *run) error {
	var err error
	if w.clusters, err = w.quality(r); err != nil {
		return err
	}
	// Phase A: run batches on 1 connection.
	wall, err := w.runBatches(r, r.cfg.opsPerRound(readBatchesPerSecond), "op")
	if err != nil {
		return err
	}
	r.sample("op_wall", wall)
	// Phase B: GET /vertex/{id} on seeded uniform ids on 1 connection;
	// 1 reply in 64 is checked against the graph. The phases are
	// sequential so that each gets both cores.
	ids, nv := w.vertexIDs(r), numVertices(w.d.g)
	lat, _, err := closedLoop(1, w.vertexReads(r), func(_, i int) (time.Duration, error) {
		v := uint32(ids.Intn(nv))
		id := r.tr.start("client", "http_vertex", -1, i)
		b, d, err := w.d.cl.do(http.MethodGet, fmt.Sprintf("/vertex/%d", v), "")
		r.tr.stop(id)
		if err != nil {
			r.attempt()
			r.fail("%v", err)
			return 0, err
		}
		if i%64 == 0 {
			r.checkVertex(b, w.d.g, v, 0, -1)
		} else {
			r.attempt()
		}
		return d, nil
	})
	for _, v := range lat {
		r.sample("aux", v)
	}
	return err
}

// layers replays the traced requests through the daemon's handler and
// through direct layer calls, so that self times come from subtraction:
// transport = HTTP - handler, serve = handler - direct.
func (w *serveRead) layers(r *run) error {
	r.tr.on = true
	defer func() { r.tr.on = false }()
	viaH := viaHandler(serverHandler(w.d.srv))
	nBatch := len(r.series("op")[r.round])
	var handlerBatch, daemonEngine []float64
	for i := 0; i < nBatch; i++ {
		id := r.tr.start("serve", "handler_run_batch", -1, i)
		wall, engineMS, err := r.postRunBatch(viaH, w.seq)
		r.tr.stop(id)
		if err != nil {
			return err
		}
		handlerBatch = append(handlerBatch, ms(wall))
		daemonEngine = append(daemonEngine, engineMS)
	}
	direct := make([][]float64, len(w.clusters))
	for i := 0; i < nBatch; i++ {
		supersteps, msgBytes := 0, int64(0)
		for j, a := range algos() {
			id := r.tr.start("algorithms", "run_"+strings.ToLower(a.String()), -1, i)
			t0 := time.Now()
			out, err := runAlgo(w.clusters[j], a)
			direct[j] = append(direct[j], ms(time.Since(t0)))
			r.tr.stop(id)
			if err != nil {
				return err
			}
			r.checkOutcome("direct "+a.String(), out, w.seq[j])
			supersteps += out.Supersteps
			msgBytes += out.MsgBytes
		}
		r.exact("engine.supersteps", float64(supersteps))
		r.exact("engine.msg_bytes", float64(msgBytes))
	}
	directBatch := 0.0
	for j, a := range algos() {
		m := median(direct[j])
		r.set("algorithms.run_"+strings.ToLower(a.String())+"_ms", m, len(direct[j]))
		directBatch += m
	}
	r.set("algorithms.run_s", directBatch/1000, nBatch)
	comp := currentComposite(w.d.srv)
	t0 := time.Now()
	for j := range algos() {
		newCluster(compositePart(comp, j), false)
	}
	r.set("engine.new_cluster_s", sec(time.Since(t0)), len(w.clusters))

	// A 1-in-4 sample of the round's ids through the handler and through
	// the partition lookups the handler makes.
	var handlerVertex, lookup []float64
	ids, nv := w.vertexIDs(r), numVertices(w.d.g)
	for i := 0; i < w.vertexReads(r); i++ {
		v := uint32(ids.Intn(nv))
		if i%4 != 0 {
			continue
		}
		id := r.tr.start("serve", "handler_vertex", -1, i)
		b, lat, err := viaH(http.MethodGet, fmt.Sprintf("/vertex/%d", v), "")
		r.tr.stop(id)
		if err != nil {
			return err
		}
		r.checkVertex(b, w.d.g, v, 0, -1)
		handlerVertex = append(handlerVertex, us(lat))
		id = r.tr.start("partition", "lookup", -1, i)
		t0 := time.Now()
		lookupVertex(comp, v)
		lookup = append(lookup, us(time.Since(t0)))
		r.tr.stop(id)
	}

	batch, vertex := r.series("op")[r.round], r.series("aux")[r.round]
	httpBatch, httpVertex := median(batch)*1000, median(vertex)*1e6
	hb, hv, lk, de := median(handlerBatch), median(handlerVertex), median(lookup), median(daemonEngine)
	r.set("serve.handler_run_batch_ms", hb, len(handlerBatch))
	r.set("serve.run_overhead_ms", hb-directBatch, len(handlerBatch))
	r.set("client.transport_run_ms", httpBatch-hb, len(batch))
	r.set("serve.handler_vertex_us", hv, len(handlerVertex))
	r.set("partition.lookup_us", lk, len(lookup))
	r.set("client.transport_vertex_us", httpVertex-hv, len(vertex))
	r.set("client.run_batch_p90_ms", quantile(batch, 0.9)*1000, len(batch))
	r.set("client.run_batch_p99_ms", quantile(batch, 0.99)*1000, len(batch))
	r.set("client.vertex_p90_us", quantile(vertex, 0.9)*1e6, len(vertex))
	r.set("client.vertex_p99_us", quantile(vertex, 0.99)*1e6, len(vertex))
	fmt.Fprintf(os.Stderr, "serve_read: run batch %.2f ms over HTTP = transport %.2f + serve %.2f + algorithms/engine %.2f (direct); the daemon reported %.2f ms of engine wall\n",
		httpBatch, httpBatch-hb, hb-directBatch, directBatch, de)
	fmt.Fprintf(os.Stderr, "serve_read: GET /vertex %.1f us over HTTP = transport %.1f + serve %.1f + partition %.1f\n",
		httpVertex, httpVertex-hv, hv-lk, lk)
	// The three routes explain the batch by subtraction, so what stays
	// unexplained is how far the direct runs miss the engine wall the
	// daemon itself reported for the same algorithms.
	r.set("trace.unexplained_share", (de-directBatch)/httpBatch, nBatch)
	return nil
}

// ---- serve_write ----

// edgePicker draws seeded uniformly-random existing edges for one
// connection. Connection c only ever gets edges whose smaller endpoint
// is congruent to c modulo the connection count, so two connections
// never delete the same edge. Every edge of the undirected graph is
// writer-safe: both endpoints keep a positive degree.
type edgePicker struct {
	g    *Graph
	rng  *rand.Rand
	conn int
}

func (p *edgePicker) pick(n int) [][2]uint32 {
	var out [][2]uint32
	nv := numVertices(p.g)
	for len(out) < n {
		u := uint32(p.rng.Intn(nv))
		nb := outNeighbors(p.g, int(u))
		if len(nb) == 0 {
			continue
		}
		v := nb[p.rng.Intn(len(nb))]
		lo, hi := min(u, v), max(u, v)
		dup := int(lo)%conns != p.conn
		for _, e := range out {
			dup = dup || (min(e[0], e[1]) == lo && max(e[0], e[1]) == hi)
		}
		if !dup {
			out = append(out, [2]uint32{u, v})
		}
	}
	return out
}

func updateBody(edges [][2]uint32) string {
	var sb strings.Builder
	for _, e := range edges {
		fmt.Fprintf(&sb, "- %d %d\n+ %d %d\n", e[0], e[1], e[0], e[1])
	}
	sb.WriteString("commit\n")
	return sb.String()
}

// update posts one batch, checks the ack, and follows it with the
// read-your-writes lookup of the batch's first edge.
func (r *run) update(cl *client, g *Graph, edges [][2]uint32) (ack, ryw time.Duration, err error) {
	b, ack, err := cl.do(http.MethodPost, "/updates", updateBody(edges))
	r.attempt()
	if err != nil {
		r.fail("%v", err)
		return 0, 0, err
	}
	var rep ackReply
	if err := json.Unmarshal(b, &rep); err != nil {
		r.fail("/updates reply: %v", err)
		return 0, 0, err
	}
	if !(rep.Durable && rep.Visible && rep.Inserts == len(edges) && rep.Deletes == len(edges) && rep.Mutations == 2*len(edges)) {
		r.fail("/updates ack is not durable+visible with %d inserts and deletes: %s", len(edges), bytes.TrimSpace(b))
	}
	u, v := edges[0][0], edges[0][1]
	b, ryw, err = cl.do(http.MethodGet, fmt.Sprintf("/vertex/%d?min_lsn=%d", u, rep.LSN), "")
	if err != nil {
		r.attempt()
		r.fail("%v", err)
		return 0, 0, err
	}
	r.checkVertex(b, g, u, rep.LSN, int64(v))
	return ack, ryw, nil
}

// dirBytes sums the sizes of the files of a store directory (it holds
// no subdirectories).
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

type serveWrite struct {
	served
	pickers [conns]*edgePicker
	warm    []string // the warm-up batches of this round
	bodies  []string // the timed batches of this round, in ack order
	walGrew int64    // bytes the store directory grew by during them
	pubs    []metricsReply
	mu      sync.Mutex
}

func (w *serveWrite) setUp(r *run) error {
	if err := w.start(r); err != nil {
		return err
	}
	w.warm, w.bodies, w.pubs = nil, nil, nil
	for c := range w.pickers {
		w.pickers[c] = &edgePicker{g: w.d.g, rng: rand.New(rand.NewSource(r.cfg.seed*77 + int64(c))), conn: c}
	}
	waves := warmupWaves
	if r.cfg.prof.smoke {
		waves = 2
	}
	for i := 0; i < waves; i++ {
		edges := w.pickers[i%conns].pick(edgesPerUpdate)
		w.warm = append(w.warm, updateBody(edges))
		if _, _, err := r.update(w.d.cl, w.d.g, edges); err != nil {
			return err
		}
	}
	_, _, err := r.postRunBatch(w.d.cl.do, w.seq)
	return err
}

func (w *serveWrite) measure(r *run) error {
	// 2 connections post fsynced /updates batches, each ack followed by
	// its read-your-writes lookup.
	sizeBefore, err := dirBytes(w.d.dir)
	if err != nil {
		return err
	}
	lat, wall, err := closedLoop(conns, r.cfg.opsPerRound(writeAcksPerSecond), func(conn, i int) (time.Duration, error) {
		edges := w.pickers[conn].pick(edgesPerUpdate)
		id := r.tr.start("client", "http_update", -1, i*conns+conn)
		ack, read, err := r.update(w.d.cl, w.d.g, edges)
		r.tr.stop(id)
		if err != nil {
			return 0, err
		}
		r.sample("ryw", sec(read))
		w.mu.Lock()
		w.bodies = append(w.bodies, updateBody(edges))
		w.mu.Unlock()
		// A 1-in-4 sample of traced acks reads the publish figures the
		// daemon exposes on /metrics.
		if r.tr.on && i%4 == 0 {
			b, _, err := w.d.cl.do(http.MethodGet, "/metrics", "")
			if err != nil {
				return 0, err
			}
			var m metricsReply
			if err := json.Unmarshal(b, &m); err != nil {
				return 0, err
			}
			w.mu.Lock()
			w.pubs = append(w.pubs, m)
			w.mu.Unlock()
		}
		return ack, nil
	})
	if err != nil {
		return err
	}
	for _, v := range lat {
		r.sample("op", v)
	}
	r.sample("op_wall", wall)
	sizeAfter, err := dirBytes(w.d.dir)
	if err != nil {
		return err
	}
	w.walGrew = sizeAfter - sizeBefore

	// The collector runs between the phases, so that peak RSS does not
	// depend on when it last ran during the writes.
	runtime.GC()

	// Phase C: run batches on 1 connection against the fully mutated
	// epoch. Every deleted edge was re-inserted, so the graph and its
	// sequential oracle are unchanged.
	if _, err := w.runBatches(r, r.cfg.opsPerRound(writeBatchesPerSecond), "aux"); err != nil {
		return err
	}

	// Crash image: the store directory copied without draining the
	// daemon must recover to exactly the acked mutations and to the
	// state the daemon serves.
	runtime.GC()
	img := w.d.dir + "-crash"
	if err := copyDir(w.d.dir, img); err != nil {
		return err
	}
	defer os.RemoveAll(img)
	acked := 2 * edgesPerUpdate * (len(w.warm) + len(w.bodies))
	t0 := time.Now()
	st, replayed, err := openStore(img, w.d.g)
	r.sample("recover", sec(time.Since(t0)))
	if err != nil {
		return fmt.Errorf("recovering the crash image: %w", err)
	}
	defer st.Close()
	r.check(replayed == acked, "recovery replayed %d mutations, %d were acked", replayed, acked)
	r.exact("store.recover_replayed", float64(replayed))
	comp := currentComposite(w.d.srv)
	err = compositesEqual(storeComposite(st), comp)
	r.check(err == nil, "recovered state differs from the served state: %v", err)
	err = validateComposite(comp)
	r.check(err == nil, "served composite after the writes: %v", err)
	_, err = w.quality(r)
	return err
}

// layers replays every batch the daemon acked this round, in ack order,
// through twins of its layers: the parser, a composite that folds the
// mutations, and a store that also logs and fsyncs them.
func (w *serveWrite) layers(r *run) error {
	twinComp, err := buildServedComposite(w.d.g)
	if err != nil {
		return err
	}
	storeComp, err := buildServedComposite(w.d.g)
	if err != nil {
		return err
	}
	twinDir := w.d.dir + "-twin"
	twinStore, err := createStore(twinDir, storeComp)
	if err != nil {
		return err
	}
	defer os.RemoveAll(twinDir)
	defer twinStore.Close()
	var parse, fold, apply []float64
	r.tr.on = true
	defer func() { r.tr.on = false }()
	for i, body := range append(append([]string(nil), w.warm...), w.bodies...) {
		t0 := time.Now()
		muts, err := parseUpdates(strings.NewReader(body))
		if err != nil {
			return err
		}
		parsed := time.Since(t0)
		t0 = time.Now()
		if err := foldUpdates(twinComp, muts); err != nil {
			return err
		}
		folded := time.Since(t0)
		id := r.tr.start("store", "apply", -1, i)
		t0 = time.Now()
		if err := applyUpdates(twinStore, muts); err != nil {
			return err
		}
		applied := time.Since(t0)
		r.tr.stop(id)
		r.tr.child("composite", "fold", id, i, 0, folded)
		if i >= len(w.warm) {
			parse = append(parse, us(parsed))
			fold = append(fold, us(folded))
			apply = append(apply, ms(applied))
		}
	}
	err = compositesEqual(twinComp, storeComposite(twinStore))
	r.check(err == nil, "the two twins diverged: %v", err)

	var publish, owned, newBytes []float64
	for _, m := range w.pubs {
		publish = append(publish, float64(m.Epochs.LastPublishNS)/1e6)
		owned = append(owned, float64(m.Epochs.OwnedFragments))
		newBytes = append(newBytes, float64(m.Epochs.ApproxNewBytes))
		r.set("serve.rejected", float64(m.Server.Rejected), 1)
	}
	acks, ryw := r.series("op")[r.round], r.series("ryw")[r.round]
	ackMS, ap, fo, pu := median(acks)*1000, median(apply), median(fold), median(publish)
	other := ackMS - ap - pu
	r.set("store.parse_us", median(parse), len(parse))
	r.set("composite.fold_us", fo, len(fold))
	r.set("store.apply_ms", ap, len(apply))
	r.set("store.wal_fsync_ms", ap-fo/1000, len(apply))
	r.set("store.wal_bytes_per_mutation", float64(w.walGrew)/float64(2*edgesPerUpdate*len(acks)), len(acks))
	r.set("store.recover_ms", median(r.series("recover")[r.round])*1000, 1)
	r.set("serve.publish_ms", pu, len(publish))
	r.set("serve.owned_fragments_per_publish", median(owned), len(owned))
	r.set("serve.new_bytes_per_publish", median(newBytes), len(newBytes))
	r.set("serve.ack_other_ms", other, len(acks))
	r.set("client.update_ack_p90_ms", quantile(acks, 0.9)*1000, len(acks))
	r.set("client.update_ack_p99_ms", quantile(acks, 0.99)*1000, len(acks))
	r.set("client.ryw_vertex_p50_us", median(ryw)*1e6, len(ryw))
	fmt.Fprintf(os.Stderr, "serve_write: ack %.2f ms = store apply %.2f (composite fold %.3f, log+fsync %.2f) + serve publish %.2f + other (queue, wave-mates, HTTP, parse %.3f) %.2f\n",
		ackMS, ap, fo/1000, ap-fo/1000, pu, median(parse)/1000, other)
	r.set("trace.unexplained_share", other/ackMS, len(acks))
	return nil
}
