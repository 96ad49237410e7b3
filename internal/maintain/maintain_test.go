package maintain

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
	"adp/internal/fault"
	"adp/internal/gen"
	"adp/internal/graph"
	"adp/internal/partition"
	"adp/internal/partitioner"
	"adp/internal/pool"
	"adp/internal/serve"
	"adp/internal/store"
	"adp/internal/testutil"
)

// The chaos suite drives live maintenance cycles against a real server
// over HTTP, with both injector families armed, under -race. Its
// contract mirrors the tentpole's acceptance criteria:
//
//	(a) no response is ever inconsistent with some published epoch,
//	(b) only validated candidates are promoted,
//	(c) a seeded post-promotion regression rolls back automatically,
//	(d) every failure mode leaves reads on the last good epoch.

// maintGraph rebuilds the deterministic serve-test graph so offline
// oracles replay server state bit-for-bit.
func maintGraph() *graph.Graph {
	return gen.PowerLaw(gen.PowerLawConfig{N: 400, AvgDeg: 6, Exponent: 2.1, Directed: false, Seed: 11})
}

// maintComposite bundles the same two partitions the serve tests use:
// an edge-cut and a vertex-assignment partition, K=2, 4 fragments.
func maintComposite(t testing.TB, g *graph.Graph) *composite.Composite {
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

// familyComposite is the composite adserve serves: composite.ForFamily
// over the family's baseline (Fennel for edge-cuts, Grid for
// vertex-cuts), for the five reference models, 4 fragments.
func familyComposite(t testing.TB, g *graph.Graph, fam partitioner.Family) *composite.Composite {
	t.Helper()
	var base *partition.Partition
	var err error
	if fam == partitioner.EdgeCutFamily {
		base, err = partitioner.FennelEdgeCut(g, 4, partitioner.FennelConfig{})
	} else {
		base, err = partitioner.GridVertexCut(g, 4)
	}
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := composite.ForFamily(fam, base, costmodel.ReferenceModels(), composite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func wccIdx() int {
	for i, a := range costmodel.Algos() {
		if a == costmodel.WCC {
			return i
		}
	}
	return 0
}

// wccOffline runs the placement-independent WCC oracle over c.
func wccOffline(t testing.TB, c *composite.Composite) algorithms.Outcome {
	t.Helper()
	part := c.Partition(wccIdx() % c.K()).Clone().Compile()
	out, err := algorithms.Run(engine.NewCluster(part).UsePool(pool.Serial()), costmodel.WCC, algorithms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// absentPairs picks n vertex pairs with no edge in g — safe inserts.
func absentPairs(g *graph.Graph, n int) [][2]graph.VertexID {
	var out [][2]graph.VertexID
	N := g.NumVertices()
	for u := 0; u < N && len(out) < n; u++ {
		for v := u + 1; v < N && len(out) < n; v++ {
			uu, vv := graph.VertexID(u), graph.VertexID(v)
			if !g.HasEdge(uu, vv) && !g.HasEdge(vv, uu) {
				out = append(out, [2]graph.VertexID{uu, vv})
			}
		}
	}
	return out
}

// crossComponentPair returns two vertices in different weakly
// connected components — inserting that edge merges them, so a
// candidate that grew it silently is guaranteed to flip the WCC
// outcome and must be caught by the bitwise oracle.
func crossComponentPair(t testing.TB, g *graph.Graph) (graph.VertexID, graph.VertexID) {
	t.Helper()
	labels, count := algorithms.WCCSeq(g)
	if count < 2 {
		t.Fatalf("test graph has %d component(s); need 2 for the corruption seed", count)
	}
	for v := 1; v < g.NumVertices(); v++ {
		if labels[v] != labels[0] {
			return 0, graph.VertexID(v)
		}
	}
	t.Fatal("no cross-component vertex found")
	return 0, 0
}

// ---- minimal HTTP harness (the serve test helpers are unexported) ----

type maintServer struct {
	Srv  *serve.Server
	URL  string
	Dir  string
	g    *graph.Graph
	once sync.Once
	derr error
}

func (ms *maintServer) drain() error {
	ms.once.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		ms.derr = ms.Srv.Drain(ctx)
	})
	return ms.derr
}

func bootServer(t testing.TB, dir string, cfg serve.Config, sopts store.Options) *maintServer {
	t.Helper()
	g := maintGraph()
	return bootServerOn(t, dir, maintComposite(t, g), cfg, sopts)
}

// bootServerOn serves c, a composite over maintGraph().
func bootServerOn(t testing.TB, dir string, c *composite.Composite, cfg serve.Config, sopts store.Options) *maintServer {
	t.Helper()
	g := c.Partition(0).Graph()
	st, err := store.Create(dir, c, sopts)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(st, cfg)
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Start(l)
	ms := &maintServer{Srv: srv, URL: "http://" + l.Addr().String(), Dir: dir, g: g}
	t.Cleanup(func() { ms.drain() })
	return ms
}

type runResp struct {
	Epoch      uint64  `json:"epoch"`
	Value      float64 `json:"value"`
	Checksum   uint64  `json:"checksum"`
	Recoveries int     `json:"recoveries"`
}

type updResp struct {
	Epoch   uint64 `json:"epoch"`
	LSN     uint64 `json:"lsn"`
	Durable bool   `json:"durable"`
	Visible bool   `json:"visible"`
}

type metricsResp struct {
	Epoch uint64 `json:"epoch"`
	Store struct {
		Failed bool `json:"write_path_failed"`
	} `json:"store"`
	Server struct {
		EpochSwaps      int64 `json:"epoch_swaps"`
		MaintPromotions int64 `json:"maint_promotions"`
		MaintRollbacks  int64 `json:"maint_rollbacks"`
	} `json:"server"`
	Maintenance *serve.MaintStatus `json:"maintenance"`
}

// do posts body (nil for GET) and decodes a 200 into out; non-200
// returns the typed error class.
func do(t testing.TB, method, url string, body io.Reader, out any) (int, string) {
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
		return resp.StatusCode, ""
	}
	var eb struct {
		Class string `json:"class"`
	}
	if err := json.Unmarshal(raw, &eb); err != nil {
		t.Fatalf("decoding error body (%d): %v (%s)", resp.StatusCode, err, raw)
	}
	return resp.StatusCode, eb.Class
}

func (ms *maintServer) run(t testing.TB, algo string) runResp {
	t.Helper()
	b, _ := json.Marshal(map[string]any{"algo": algo, "iterations": 3})
	var rr runResp
	if status, class := do(t, "POST", ms.URL+"/run", bytes.NewReader(b), &rr); status != http.StatusOK {
		t.Fatalf("POST /run %s: status %d class %q", algo, status, class)
	}
	return rr
}

func (ms *maintServer) updates(t testing.TB, stream string) (int, updResp, string) {
	t.Helper()
	var ur updResp
	status, class := do(t, "POST", ms.URL+"/updates", strings.NewReader(stream), &ur)
	return status, ur, class
}

func (ms *maintServer) metrics(t testing.TB) metricsResp {
	t.Helper()
	var mr metricsResp
	if status, class := do(t, "GET", ms.URL+"/metrics", nil, &mr); status != http.StatusOK {
		t.Fatalf("GET /metrics: status %d class %q", status, class)
	}
	return mr
}

// traffic posts n WCC and n PR runs so the observation window carries a
// non-degenerate mix and per-fragment work rows.
func (ms *maintServer) traffic(t testing.TB, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		ms.run(t, "WCC")
		ms.run(t, "PR")
	}
}

// insertStream renders pairs as explicit-destination inserts into
// fragment 0 of every partition — the drift seed.
func insertStream(pairs [][2]graph.VertexID) string {
	var sb strings.Builder
	for _, p := range pairs {
		fmt.Fprintf(&sb, "+ %d %d 0 0\n", p[0], p[1])
	}
	return sb.String()
}

func leakCheck(t *testing.T, base int) {
	t.Helper()
	testutil.CheckGoroutines(t, base, 2)
}

// TestMaintainPromotesUnderDrift is the headline: skewed inserts drive
// the learned-cost imbalance over the threshold, a live cycle refines
// and promotes a candidate while concurrent readers hammer /run with
// engine faults armed on BOTH the serving and the oracle path — and
// every response, before, during and after the promotion, is bitwise
// the WCC outcome of its epoch's edge set. The promoted epoch then
// absorbs further updates and survives a restart.
func TestMaintainPromotesUnderDrift(t *testing.T) {
	g := maintGraph()
	pl := pool.New(4)
	defer pl.Close()
	warm := maintComposite(t, g).Partition(0).Clone().Compile()
	if _, err := algorithms.Run(engine.NewCluster(warm).UsePool(pl), costmodel.WCC, algorithms.Options{}); err != nil {
		t.Fatal(err)
	}
	baseGoroutines := testutil.GoroutineBaseline()

	runInj := fault.NewInjector(
		fault.Event{Kind: fault.Crash, Superstep: 1, Worker: 0},
		fault.Event{Kind: fault.Transient, Superstep: 2, Worker: 1},
	)
	ms := bootServer(t, t.TempDir()+"/store", serve.Config{Pool: pl, RunInjector: runInj, SessionsPerAlgo: 2}, store.Options{})

	// Seed drift: 180 extra edges, all into fragment 0 of both
	// partitions, in 6 batches. The replica replays them for the oracle.
	pairs := absentPairs(g, 185)
	if len(pairs) < 185 {
		t.Fatalf("only %d absent pairs", len(pairs))
	}
	replica := maintComposite(t, g)
	var lastAck uint64
	for b := 0; b < 6; b++ {
		chunk := pairs[b*30 : (b+1)*30]
		status, ur, class := ms.updates(t, insertStream(chunk))
		if status != http.StatusOK || !ur.Durable || !ur.Visible {
			t.Fatalf("skew batch %d: status %d class %q ack %+v", b, status, class, ur)
		}
		lastAck = ur.Epoch
		for _, p := range chunk {
			if err := replica.InsertEdge(p[0], p[1], []int{0, 0}); err != nil {
				t.Fatal(err)
			}
		}
	}
	wantWCC := wccOffline(t, replica)

	lp := New(ms.Srv, Config{
		Interval:       time.Hour, // ticks driven manually
		DriftThreshold: 0.05,
		MinGain:        -0.25,
		RefineTimeout:  20 * time.Second,
		BaseBackoff:    time.Millisecond,
		MaxAttempts:    2,
		Watchdog:       WatchdogConfig{Window: 50 * time.Millisecond, CostFactor: 1000, LatFactor: 1000, MinSamples: 1 << 20},
		Pool:           pl,
		OracleInjector: runInj,
		Seed:           7,
		Logf:           t.Logf,
	})
	lp.Start()
	defer lp.Stop()

	// Harvest the skewed workload into the observation window; each
	// faulted response must already be bitwise the epoch's WCC outcome.
	for i := 0; i < 6; i++ {
		rr := ms.run(t, "WCC")
		if rr.Value != wantWCC.Value || rr.Checksum != wantWCC.Checksum {
			t.Fatalf("pre-promotion WCC (%v,%d) vs oracle (%v,%d)", rr.Value, rr.Checksum, wantWCC.Value, wantWCC.Checksum)
		}
		ms.run(t, "PR")
	}

	// Concurrent readers race the promotion; results checked after.
	type obs struct {
		epoch    uint64
		value    float64
		checksum uint64
	}
	var wg sync.WaitGroup
	results := make(chan obs, 3*8)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				rr := ms.run(t, "WCC")
				results <- obs{rr.Epoch, rr.Value, rr.Checksum}
			}
		}()
	}
	lp.Tick()
	wg.Wait()
	close(results)
	for o := range results {
		// Promotion preserves the edge set, so every epoch in flight
		// here shares one WCC outcome — criterion (a), bitwise.
		if o.value != wantWCC.Value || o.checksum != wantWCC.Checksum {
			t.Fatalf("reader on epoch %d: (%v,%d) vs oracle (%v,%d)", o.epoch, o.value, o.checksum, wantWCC.Value, wantWCC.Checksum)
		}
	}

	st := lp.Status()
	if st.Promoted != 1 || st.RolledBack != 0 {
		t.Fatalf("status after cycle: %+v (drift %.3f), want 1 promotion", st, st.LastDrift)
	}
	if st.ValidationFailures != 0 || st.RefinePanics != 0 {
		t.Fatalf("clean cycle reported failures: %+v", st)
	}
	if st.LastDrift < lp.cfg.DriftThreshold {
		t.Fatalf("recorded drift %.4f below threshold %.4f yet cycle ran", st.LastDrift, lp.cfg.DriftThreshold)
	}
	mr := ms.metrics(t)
	if mr.Server.MaintPromotions != 1 || mr.Epoch != lastAck+1 {
		t.Fatalf("metrics: promotions=%d epoch=%d, want 1 and %d", mr.Server.MaintPromotions, mr.Epoch, lastAck+1)
	}
	if mr.Maintenance == nil || !mr.Maintenance.Enabled || mr.Maintenance.Promoted != 1 {
		t.Fatalf("metrics maintenance block missing or stale: %+v", mr.Maintenance)
	}

	// The promoted (refined) epoch keeps absorbing updates.
	extra := pairs[180:185]
	status, ur, class := ms.updates(t, insertStream(extra))
	if status != http.StatusOK || ur.Epoch != mr.Epoch+1 {
		t.Fatalf("post-promotion batch: status %d class %q ack %+v", status, class, ur)
	}
	for _, p := range extra {
		if err := replica.InsertEdge(p[0], p[1], []int{0, 0}); err != nil {
			t.Fatal(err)
		}
	}
	wantWCC2 := wccOffline(t, replica)
	rr := ms.run(t, "WCC")
	if rr.Epoch != ur.Epoch || rr.Value != wantWCC2.Value || rr.Checksum != wantWCC2.Checksum {
		t.Fatalf("post-promotion WCC: epoch %d (%v,%d) vs epoch %d (%v,%d)",
			rr.Epoch, rr.Value, rr.Checksum, ur.Epoch, wantWCC2.Value, wantWCC2.Checksum)
	}

	lp.Stop()
	if err := ms.drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	leakCheck(t, baseGoroutines)

	// Restart: the refined placement plus the post-promotion batch came
	// back off disk, coherent and semantically intact.
	st2, info, err := store.Open(ms.Dir, g, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if info.Damage != nil || info.DiscardedMutations != 0 {
		t.Fatalf("recovery not clean: %v", info)
	}
	if err := st2.Composite().ValidateIndex(); err != nil {
		t.Fatalf("recovered index invalid: %v", err)
	}
	got := wccOffline(t, st2.Composite())
	if got.Value != wantWCC2.Value || got.Checksum != wantWCC2.Checksum {
		t.Fatalf("recovered WCC (%v,%d) vs oracle (%v,%d)", got.Value, got.Checksum, wantWCC2.Value, wantWCC2.Checksum)
	}
}

// TestMaintainChaosDegrade drives three failure families through live
// cycles on one server — refiner panic, a semantically corrupt
// candidate (a dropped bridge edge the bitwise oracle must catch), and
// refinement deadline expiry. Every one degrades to "keep serving the
// last good epoch" with the right typed counter — criteria (b) and (d).
func TestMaintainChaosDegrade(t *testing.T) {
	g := maintGraph()
	ms := bootServer(t, t.TempDir()+"/store", serve.Config{}, store.Options{})
	pristine := wccOffline(t, maintComposite(t, g))
	cu, cv := crossComponentPair(t, g)

	base := Config{
		Interval:       time.Hour,
		DriftThreshold: 1e-9, // any observed imbalance triggers a cycle
		BaseBackoff:    time.Millisecond,
		MaxAttempts:    2,
		Watchdog:       WatchdogConfig{Window: time.Millisecond, CostFactor: 1000, LatFactor: 1000, MinSamples: 1 << 20},
		Logf:           t.Logf,
	}

	cases := []struct {
		name   string
		mut    func(*Config)
		check  func(t *testing.T, st serve.MaintStatus)
		errSub string
	}{
		{
			name: "refiner panic",
			mut: func(c *Config) {
				c.TransformCandidate = func(*composite.Composite) { panic("chaos: seeded refiner panic") }
			},
			check: func(t *testing.T, st serve.MaintStatus) {
				if st.RefinePanics != 2 {
					t.Fatalf("refine_panics = %d, want 2 (one per attempt)", st.RefinePanics)
				}
			},
			errSub: "panicked",
		},
		{
			name: "oracle catches corrupt candidate",
			mut: func(c *Config) {
				// The candidate silently grows a component-merging edge:
				// structurally coherent (index validates), semantically
				// wrong — only the bitwise spot-check can reject it.
				c.TransformCandidate = func(cand *composite.Composite) {
					if err := cand.InsertEdge(cu, cv, []int{0, 0}); err != nil {
						panic(err)
					}
				}
			},
			check: func(t *testing.T, st serve.MaintStatus) {
				if st.ValidationFailures != 2 {
					t.Fatalf("validation_failures = %d, want 2", st.ValidationFailures)
				}
			},
			errSub: "oracle mismatch",
		},
		{
			name: "refinement deadline",
			mut: func(c *Config) {
				c.RefineTimeout = time.Nanosecond
			},
			check: func(t *testing.T, st serve.MaintStatus) {
				if st.RefineFailures < 2 {
					t.Fatalf("refine_failures = %d, want >= 2", st.RefineFailures)
				}
			},
			errSub: "refining partition",
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mut(&cfg)
			lp := New(ms.Srv, cfg)
			ms.traffic(t, 2) // fresh observation window per scenario
			lp.Tick()
			st := lp.Status()
			if st.Cycles != 1 {
				t.Fatalf("cycles = %d (drift %.6f), want 1", st.Cycles, st.LastDrift)
			}
			if st.Promoted != 0 || st.RolledBack != 0 {
				t.Fatalf("degraded cycle still swapped epochs: %+v", st)
			}
			tc.check(t, st)
			if !strings.Contains(st.LastError, tc.errSub) {
				t.Fatalf("last_error %q does not mention %q", st.LastError, tc.errSub)
			}
			// The server never left its last good epoch and still
			// serves the exact pristine outcome.
			rr := ms.run(t, "WCC")
			if rr.Epoch != 1 || rr.Value != pristine.Value || rr.Checksum != pristine.Checksum {
				t.Fatalf("post-failure read: epoch %d (%v,%d), want epoch 1 (%v,%d)",
					rr.Epoch, rr.Value, rr.Checksum, pristine.Value, pristine.Checksum)
			}
		})
	}
}

// TestMaintainRollback seeds a regression INTO the watchdog window: the
// cycle promotes a validated candidate, then a burst of fragment-0
// inserts drives the live mix-weighted cost past the rollback factor —
// the watchdog swaps back to the retained base, replaying the burst so
// no acked update is lost. Criterion (c).
func TestMaintainRollback(t *testing.T) {
	g := maintGraph()
	ms := bootServer(t, t.TempDir()+"/store", serve.Config{}, store.Options{})
	lp := New(ms.Srv, Config{
		Interval:       time.Hour,
		DriftThreshold: 1e-9,
		MinGain:        -5, // accept any candidate; the watchdog is under test
		BaseBackoff:    time.Millisecond,
		MaxAttempts:    1,
		Watchdog:       WatchdogConfig{Window: 1200 * time.Millisecond, CostFactor: 1.01, LatFactor: 1000, MinSamples: 1 << 20},
		Seed:           5,
		Logf:           t.Logf,
	})
	ms.traffic(t, 2)

	done := make(chan struct{})
	go func() {
		defer close(done)
		lp.Tick()
	}()

	// Wait for the promotion, then seed the regression inside the
	// watchdog window: 240 extra arcs into fragment 0.
	deadline := time.Now().Add(20 * time.Second)
	for lp.Status().Promoted == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no promotion within deadline: %+v", lp.Status())
		}
		time.Sleep(2 * time.Millisecond)
	}
	pairs := absentPairs(g, 240)
	replica := maintComposite(t, g)
	status, ur, class := ms.updates(t, insertStream(pairs))
	if status != http.StatusOK {
		t.Fatalf("regression batch: status %d class %q", status, class)
	}
	for _, p := range pairs {
		if err := replica.InsertEdge(p[0], p[1], []int{0, 0}); err != nil {
			t.Fatal(err)
		}
	}
	<-done

	st := lp.Status()
	if st.Promoted != 1 || st.RolledBack != 1 {
		t.Fatalf("status: %+v, want 1 promotion + 1 rollback", st)
	}
	if !strings.Contains(st.LastError, "rolled back") {
		t.Fatalf("last_error %q does not record the rollback", st.LastError)
	}
	mr := ms.metrics(t)
	if mr.Server.MaintRollbacks != 1 || mr.Server.MaintPromotions != 1 {
		t.Fatalf("metrics: promotions=%d rollbacks=%d", mr.Server.MaintPromotions, mr.Server.MaintRollbacks)
	}
	// Epochs: 1 (base) -> 2 (promotion) -> 3 (regression batch) -> 4
	// (rollback, burst replayed onto the base placement).
	if mr.Epoch != ur.Epoch+1 {
		t.Fatalf("epoch %d after rollback, want %d", mr.Epoch, ur.Epoch+1)
	}
	want := wccOffline(t, replica)
	rr := ms.run(t, "WCC")
	if rr.Epoch != mr.Epoch || rr.Value != want.Value || rr.Checksum != want.Checksum {
		t.Fatalf("post-rollback WCC: epoch %d (%v,%d), want epoch %d (%v,%d)",
			rr.Epoch, rr.Value, rr.Checksum, mr.Epoch, want.Value, want.Checksum)
	}

	// The rollback was durable: a restart lands on it.
	if err := ms.drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	st2, info, err := store.Open(ms.Dir, g, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if info.Damage != nil {
		t.Fatalf("recovery found damage: %v", info)
	}
	got := wccOffline(t, st2.Composite())
	if got.Value != want.Value || got.Checksum != want.Checksum {
		t.Fatalf("recovered WCC (%v,%d) vs oracle (%v,%d)", got.Value, got.Checksum, want.Value, want.Checksum)
	}
}

// TestMaintainDiskFaultDuringPromotion arms a disk fault on the exact
// fsync the durable swap issues first: the promotion fails, the write
// path poisons like any other write error, and the maintenance loop
// degrades — readers never leave the last good epoch. Criterion (d).
func TestMaintainDiskFaultDuringPromotion(t *testing.T) {
	g := maintGraph()
	// store.Create fsyncs twice (snapshot + segment header); with no
	// update traffic the next sync is ReplaceComposite's pre-replace
	// log flush.
	inj := fault.NewDiskInjector(fault.DiskEvent{Kind: fault.SyncErr, N: 2})
	ms := bootServer(t, t.TempDir()+"/store", serve.Config{}, store.Options{Injector: inj})
	pristine := wccOffline(t, maintComposite(t, g))

	lp := New(ms.Srv, Config{
		Interval:       time.Hour,
		DriftThreshold: 1e-9,
		MinGain:        -5,
		BaseBackoff:    time.Millisecond,
		MaxAttempts:    2,
		Watchdog:       WatchdogConfig{Window: time.Millisecond, CostFactor: 1000, LatFactor: 1000, MinSamples: 1 << 20},
		Logf:           t.Logf,
	})
	ms.traffic(t, 2)
	lp.Tick()

	st := lp.Status()
	if st.Promoted != 0 || st.SwapFailures != 2 {
		t.Fatalf("status: %+v, want 0 promotions and 2 swap failures (disk fault, then fail-fast)", st)
	}
	if st.LastError == "" {
		t.Fatal("no last_error after a failed durable swap")
	}
	mr := ms.metrics(t)
	if !mr.Store.Failed {
		t.Fatal("failed durable swap did not poison the write path")
	}
	if mr.Epoch != 1 {
		t.Fatalf("epoch %d after failed swap, want 1", mr.Epoch)
	}
	rr := ms.run(t, "WCC")
	if rr.Epoch != 1 || rr.Value != pristine.Value || rr.Checksum != pristine.Checksum {
		t.Fatalf("post-fault read: epoch %d (%v,%d), want pristine epoch 1", rr.Epoch, rr.Value, rr.Checksum)
	}
	if status, _, class := ms.updates(t, "+ 0 1 0 0\n"); status != http.StatusServiceUnavailable || class != "store_failed" {
		t.Fatalf("post-poison update: status %d class %q, want 503 store_failed", status, class)
	}

	// Drain may surface the poisoned close; restart recovers the
	// pristine committed state — the aborted swap left no trace.
	t.Logf("drain after poisoned swap: %v", ms.drain())
	st2, info, err := store.Open(ms.Dir, g, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if info.Damage != nil {
		t.Fatalf("recovery found damage: %v", info)
	}
	if err := st2.Composite().EqualState(maintComposite(t, g)); err != nil {
		t.Fatalf("recovered state diverged from pristine: %v", err)
	}
}

// TestMaintainDrainRace races SIGTERM-style drains against in-flight
// epoch promotions at shifting interleavings: each run must either
// complete the promotion before the drain or abort it atomically — a
// reopen shows exactly the base state or exactly the promoted state,
// and nothing leaks.
func TestMaintainDrainRace(t *testing.T) {
	g := maintGraph()
	baseGoroutines := testutil.GoroutineBaseline()
	marker := absentPairs(g, 1)[0]
	promoted, aborted := 0, 0

	for i := 0; i < 8; i++ {
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("s%d", i))
		st, err := store.Create(dir, maintComposite(t, g), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := serve.New(st, serve.Config{})
		if err != nil {
			t.Fatal(err)
		}
		base, seq, err := srv.BeginMaintenance()
		if err != nil {
			t.Fatal(err)
		}
		// The candidate carries a marker edge so the reopen can tell a
		// promoted store from an aborted one.
		cand := base.Clone()
		if err := cand.InsertEdge(marker[0], marker[1], []int{0, 0}); err != nil {
			t.Fatal(err)
		}

		var wg sync.WaitGroup
		var swapErr, drainErr error
		wg.Add(2)
		go func() {
			defer wg.Done()
			time.Sleep(time.Duration(i) * 300 * time.Microsecond)
			_, swapErr = srv.SwapEpoch(cand, seq, false)
		}()
		go func() {
			defer wg.Done()
			time.Sleep(time.Duration(7-i) * 300 * time.Microsecond)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			drainErr = srv.Drain(ctx)
		}()
		wg.Wait()
		if drainErr != nil {
			t.Fatalf("iter %d: drain: %v", i, drainErr)
		}

		st2, info, err := store.Open(dir, g, store.Options{})
		if err != nil {
			t.Fatalf("iter %d: reopen: %v", i, err)
		}
		if info.Damage != nil {
			t.Fatalf("iter %d: damage: %v", i, info)
		}
		want := maintComposite(t, g)
		if swapErr == nil {
			promoted++
			if err := want.InsertEdge(marker[0], marker[1], []int{0, 0}); err != nil {
				t.Fatal(err)
			}
		} else {
			aborted++
		}
		if err := st2.Composite().EqualState(want); err != nil {
			t.Fatalf("iter %d (swapErr=%v): reopened state is neither base nor promoted: %v", i, swapErr, err)
		}
		st2.Close()
	}
	t.Logf("drain races: %d promoted, %d aborted", promoted, aborted)
	leakCheck(t, baseGoroutines)
}

// TestMaintainStorageGate runs one cycle over each family's ForFamily
// composite with the cost floor and watchdog out of the way. Re-refining
// the k partitions one by one and reassembling them keeps only the arcs
// all k still share as the core, so a candidate can store far more than
// the build did (MV2H's measured +72 %): the storage gate must refuse
// it, count the refusal in /metrics, and leave the live composite
// within the bound of the fresh build.
func TestMaintainStorageGate(t *testing.T) {
	for _, fam := range []partitioner.Family{partitioner.EdgeCutFamily, partitioner.VertexCutFamily} {
		t.Run(fam.String(), func(t *testing.T) {
			g := maintGraph()
			c := familyComposite(t, g, fam)
			fresh := c.StorageArcs()
			ms := bootServerOn(t, t.TempDir()+"/store", c, serve.Config{}, store.Options{})
			lp := New(ms.Srv, Config{
				Interval:       time.Hour,
				DriftThreshold: 1e-9,
				MinGain:        -5,
				BaseBackoff:    time.Millisecond,
				MaxAttempts:    1,
				Watchdog:       WatchdogConfig{Window: time.Millisecond, CostFactor: 1000, LatFactor: 1000, MinSamples: 1 << 20},
				Seed:           3,
				Logf:           t.Logf,
			})
			lp.Start() // registers the /metrics block; ticks are driven here
			defer lp.Stop()
			ms.traffic(t, 2)
			lp.Tick()
			st := lp.Status()
			if st.Cycles != 1 {
				t.Fatalf("status: %+v, want one cycle", st)
			}
			live, _ := ms.Srv.CurrentComposite()
			if got := live.StorageArcs(); float64(got) > 1.1*float64(fresh) {
				t.Fatalf("live composite stores %d arcs, %.1f%% over the fresh build's %d (promoted %d)",
					got, 100*(float64(got)/float64(fresh)-1), fresh, st.Promoted)
			}
			var raw struct {
				Maintenance map[string]any `json:"maintenance"`
			}
			if status, class := do(t, "GET", ms.URL+"/metrics", nil, &raw); status != http.StatusOK {
				t.Fatalf("GET /metrics: status %d class %q", status, class)
			}
			rejected, ok := raw.Maintenance["rejected_storage"].(float64)
			if !ok {
				t.Fatalf("/metrics maintenance block has no rejected_storage: %v", raw.Maintenance)
			}
			if st.Promoted == 0 && rejected == 0 {
				t.Fatalf("nothing promoted and no storage rejection counted: %+v", st)
			}
			t.Logf("%v: fresh %d arcs, live %d, promoted %d, rejected_storage %v", fam, fresh, live.StorageArcs(), st.Promoted, rejected)
		})
	}
}
