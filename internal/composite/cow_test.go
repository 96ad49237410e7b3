package composite

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"adp/internal/algorithms"
	"adp/internal/costmodel"
	"adp/internal/engine"
	"adp/internal/gen"
	"adp/internal/graph"
	"adp/internal/partition"
	"adp/internal/partitioner"
	"adp/internal/pool"
	"adp/internal/refine"
)

// TestCloneCOWOracleWaves is the COW-publication property test: random
// update waves flow through the CloneCOW path exactly as the serving
// plane's apply loop publishes epochs, while a deep Clone taken before
// the first wave receives the same mutations and is never cut — its
// partitions stay in their overlays, the form that shares nothing and
// folds nothing. Every published epoch must be bitwise-equal to that
// oracle at its cut — EqualState in both directions, coherent
// partitions, the same Locate / StorageArcs / CoreArcs answers and
// (periodically) identical engine fingerprints — and must still answer
// the same after every later wave: a delete or an insert leaking into a
// shared fragment would change an old epoch's Locate. Concurrent readers hold all previously published
// epochs for the whole run, so under -race any write that leaks
// through the structural sharing into an already-published snapshot is
// caught. The cut's folds run on the shared pool, so the test runs at
// 1, 4 and NumCPU pool workers.
func TestCloneCOWOracleWaves(t *testing.T) {
	t.Cleanup(func() { pool.SetDefaultWorkers(0) })
	for _, w := range []int{1, 4, runtime.NumCPU()} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			pool.SetDefaultWorkers(w)
			checkCloneCOWOracleWaves(t)
		})
	}
}

func checkCloneCOWOracleWaves(t *testing.T) {
	const (
		numFrags = 6
		waves    = 40
		waveSize = 6
	)
	g := gen.PowerLaw(gen.PowerLawConfig{N: 400, AvgDeg: 5, Exponent: 2.1, Directed: true, Seed: 13})
	p1, err := partitioner.HashEdgeCut(g, numFrags)
	if err != nil {
		t.Fatal(err)
	}
	// p2 leaves its last fragment empty: a fragment of one chunk, which
	// the random waves' inserts grow.
	assign := make([]int, g.NumVertices())
	for v := range assign {
		assign[v] = (v + 1) % (numFrags - 1)
	}
	p2, err := partition.FromVertexAssignment(g, assign, numFrags)
	if err != nil {
		t.Fatal(err)
	}
	live, err := New(g, []*partition.Partition{p1, p2})
	if err != nil {
		t.Fatal(err)
	}

	// Track the live arc set so waves only delete present edges and
	// insert absent ones.
	key := func(u, v graph.VertexID) uint64 { return uint64(u)<<32 | uint64(v) }
	present := make(map[uint64][2]graph.VertexID)
	g.Edges(func(s, d graph.VertexID) bool {
		present[key(s, d)] = [2]graph.VertexID{s, d}
		return true
	})
	liveKeys := make([]uint64, 0, len(present))
	for k := range present {
		liveKeys = append(liveKeys, k)
	}

	// located is one Locate answer, comparable with ==.
	type located struct {
		core, present bool
		residuals     uint32
	}
	locate := func(c *Composite, i int, uv [2]graph.VertexID) located {
		core, res, present := c.Locate(i, uv[0], uv[1])
		l := located{core: core, present: present}
		for _, j := range res {
			l.residuals |= 1 << uint(j)
		}
		return l
	}
	type published struct {
		epoch  *Composite
		oracle *Composite
		// probes are the arcs the epoch's wave touched plus a sample of
		// others; answers[x*numFrags+i] is what Locate said about
		// probes[x] in fragment i when the epoch was cut.
		probes  [][2]graph.VertexID
		answers []located
	}
	var (
		mu    sync.Mutex
		hist  []published
		done  = make(chan struct{})
		wg    sync.WaitGroup
		nVert = g.NumVertices()
	)

	// Concurrent pinned readers: each keeps re-reading every epoch
	// published so far (old epochs included) while the writer keeps
	// mutating the live composite and cutting new ones.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				mu.Lock()
				snap := append([]published(nil), hist...)
				mu.Unlock()
				for _, pub := range snap {
					c := pub.epoch
					_ = c.StorageArcs()
					for j := 0; j < c.K(); j++ {
						p := c.Partition(j)
						v := graph.VertexID(rng.Intn(nVert))
						m := p.Master(v)
						for _, cp := range p.Copies(v) {
							_ = p.Status(int(cp), v)
						}
						if m >= 0 {
							if adj := p.Fragment(m).Adjacency(v); adj != nil {
								_ = len(adj.Out) + len(adj.In)
							}
						}
					}
				}
			}
		}(int64(100 + r))
	}

	oracle := live.Clone()
	rng := rand.New(rand.NewSource(7))
	randDest := func() []int {
		d := make([]int, live.K())
		for j := range d {
			d[j] = rng.Intn(numFrags)
		}
		return d
	}
	if f := live.Partition(1).Fragment(numFrags - 1); f.NumChunks() != 1 || f.NumArcs() != 0 {
		t.Fatalf("p2's empty fragment has %d chunks", f.NumChunks())
	}
	chunkWaves := chunkBoundaryWaves(t, live.Partition(0), func(u, v graph.VertexID, frag int) bool {
		if _, ok := present[key(u, v)]; !ok {
			return false
		}
		if !live.DeleteEdge(u, v) || !oracle.DeleteEdge(u, v) {
			t.Fatalf("edge (%d,%d) not deletable", u, v)
		}
		delete(present, key(u, v))
		i := slices.Index(liveKeys, key(u, v))
		liveKeys[i] = liveKeys[len(liveKeys)-1]
		liveKeys = liveKeys[:len(liveKeys)-1]
		return true
	}, func(u, v graph.VertexID, frag int) bool {
		if _, ok := present[key(u, v)]; ok || u == v {
			return false
		}
		dest := randDest()
		dest[0] = frag
		if err := live.InsertEdge(u, v, dest); err != nil {
			t.Fatalf("insert (%d,%d): %v", u, v, err)
		}
		if err := oracle.InsertEdge(u, v, dest); err != nil {
			t.Fatalf("oracle insert (%d,%d): %v", u, v, err)
		}
		present[key(u, v)] = [2]graph.VertexID{u, v}
		liveKeys = append(liveKeys, key(u, v))
		return true
	})
	for w := 0; w < waves+len(chunkWaves); w++ {
		// One wave: a mix of deletes of live edges and inserts of new
		// (or previously deleted) arcs, exactly what one POST /updates
		// batch does to the store's composite; the last waves are
		// chunkBoundaryWaves'.
		var probes [][2]graph.VertexID
		if w >= waves {
			probes = chunkWaves[w-waves]()
		}
		for m := 0; m < waveSize && w < waves; m++ {
			if rng.Intn(2) == 0 && len(liveKeys) > 0 {
				i := rng.Intn(len(liveKeys))
				k := liveKeys[i]
				uv := present[k]
				if !live.DeleteEdge(uv[0], uv[1]) || !oracle.DeleteEdge(uv[0], uv[1]) {
					t.Fatalf("wave %d: edge (%d,%d) not deletable", w, uv[0], uv[1])
				}
				probes = append(probes, uv)
				delete(present, k)
				liveKeys[i] = liveKeys[len(liveKeys)-1]
				liveKeys = liveKeys[:len(liveKeys)-1]
			} else {
				var u, v graph.VertexID
				for {
					u = graph.VertexID(rng.Intn(nVert))
					v = graph.VertexID(rng.Intn(nVert))
					if u != v {
						if _, ok := present[key(u, v)]; !ok {
							break
						}
					}
				}
				dest := randDest()
				if err := live.InsertEdge(u, v, dest); err != nil {
					t.Fatalf("wave %d: insert (%d,%d): %v", w, u, v, err)
				}
				if err := oracle.InsertEdge(u, v, dest); err != nil {
					t.Fatalf("wave %d: oracle insert (%d,%d): %v", w, u, v, err)
				}
				probes = append(probes, [2]graph.VertexID{u, v})
				present[key(u, v)] = [2]graph.VertexID{u, v}
				liveKeys = append(liveKeys, key(u, v))
			}
		}

		for x := 0; x < 6 && len(liveKeys) > 0; x++ {
			probes = append(probes, present[liveKeys[rng.Intn(len(liveKeys))]])
		}

		// Before the cut the wave sits in live's overlays; the reads
		// must already agree with the oracle.
		if err := live.EqualState(oracle); err != nil {
			t.Fatalf("wave %d: live composite diverges from oracle before the cut: %v", w, err)
		}
		if err := live.ValidateIndex(); err != nil {
			t.Fatalf("wave %d: live index invalid before the cut: %v", w, err)
		}

		epoch := live.CloneCOW()
		if err := epoch.EqualState(oracle); err != nil {
			t.Fatalf("wave %d: COW epoch diverges from oracle: %v", w, err)
		}
		if err := oracle.EqualState(epoch); err != nil {
			t.Fatalf("wave %d: oracle diverges from COW epoch: %v", w, err)
		}
		if err := epoch.ValidateIndex(); err != nil {
			t.Fatalf("wave %d: COW epoch index invalid: %v", w, err)
		}
		if err := oracle.ValidateIndex(); err != nil {
			t.Fatalf("wave %d: oracle index invalid: %v", w, err)
		}
		if a, b := epoch.StorageArcs(), oracle.StorageArcs(); a != b {
			t.Fatalf("wave %d: StorageArcs %d vs oracle %d", w, a, b)
		}
		pub := published{epoch: epoch, oracle: oracle.Clone(), probes: probes}
		for _, uv := range probes {
			for i := 0; i < numFrags; i++ {
				got, want := locate(epoch, i, uv), locate(oracle, i, uv)
				if got != want || got != locate(live, i, uv) {
					t.Fatalf("wave %d: Locate(%d, %v) = %+v, oracle says %+v", w, i, uv, got, want)
				}
				pub.answers = append(pub.answers, got)
			}
		}
		for i := 0; i < numFrags; i++ {
			if a, b := epoch.CoreArcs(i), oracle.CoreArcs(i); a != b {
				t.Fatalf("wave %d: CoreArcs(%d) %d vs oracle %d", w, i, a, b)
			}
		}
		if st := epoch.ShareStats(live); st.OwnedFragments != 0 {
			t.Fatalf("wave %d: a fresh cut owns storage its source does not: %+v", w, st)
		}
		if w%8 == 7 {
			for j := 0; j < epoch.K(); j++ {
				a := runWCC(t, epoch.Partition(j))
				b := runWCC(t, pub.oracle.Partition(j))
				if a != b {
					t.Fatalf("wave %d partition %d: engine fingerprint diverged: %+v vs %+v", w, j, a, b)
				}
			}
		}
		mu.Lock()
		hist = append(hist, pub)
		mu.Unlock()
	}

	close(done)
	wg.Wait()
	if f := live.Partition(1).Fragment(numFrags - 1); f.NumChunks() != 1 || f.NumArcs() == 0 {
		t.Fatalf("p2's once empty fragment has %d chunks and %d arcs after the waves, want 1 chunk that grew", f.NumChunks(), f.NumArcs())
	}

	// Every retained epoch must still equal its oracle: a later wave
	// scribbling through shared state would show up here even if the
	// wave-time comparison raced past it.
	for i, pub := range hist {
		if err := pub.epoch.EqualState(pub.oracle); err != nil {
			t.Fatalf("retained epoch %d corrupted after later waves: %v", i, err)
		}
		if err := pub.epoch.ValidateIndex(); err != nil {
			t.Fatalf("retained epoch %d index corrupted: %v", i, err)
		}
		for x, uv := range pub.probes {
			for f := 0; f < numFrags; f++ {
				if got := locate(pub.epoch, f, uv); got != pub.answers[x*numFrags+f] {
					t.Fatalf("retained epoch %d: Locate(%d, %v) changed from %+v to %+v after later waves",
						i, f, uv, pub.answers[x*numFrags+f], got)
				}
			}
		}
	}
}

// chunkStarts returns the first id of every chunk a build gives f,
// replaying the boundary rule of internal/partition over f's vertices:
// a chunk holds about a 64th of the fragment's list entries, and a
// vertex whose lists alone exceed that share holds one of its own.
func chunkStarts(f *partition.Fragment) []graph.VertexID {
	share := (2*f.NumArcs() + 63) / 64
	starts := []graph.VertexID{0}
	vol, first := 0, true
	f.Vertices(func(v graph.VertexID, adj *partition.Adj) {
		if d := adj.LocalDegree(); !first && (vol > share || vol+d > share) {
			starts, vol = append(starts, v), 0
		}
		first = false
		vol += adj.LocalDegree()
	})
	return starts
}

// chunkBoundaryWaves returns five waves on the freshly built, compiled
// partition p (the composite's first), each returning the edges it
// touched: a hub of fragment 0 that holds a chunk of its own is
// rewired; a middle chunk of fragment 1 is emptied by deletes, and the
// next wave refills it; a vertex copy is added in a middle chunk of
// fragment 2; a middle chunk of fragment 3 grows past twice its
// build-time entries. del and ins delete and insert an edge through
// the composite (ins placing it in p's fragment frag) and report
// whether they did.
func chunkBoundaryWaves(t *testing.T, p *partition.Partition, del, ins func(u, v graph.VertexID, frag int) bool) []func() [][2]graph.VertexID {
	t.Helper()
	nv := graph.VertexID(p.Graph().NumVertices())
	starts := make([][]graph.VertexID, 4)
	for i := range starts {
		if starts[i] = chunkStarts(p.Fragment(i)); len(starts[i]) != p.Fragment(i).NumChunks() || len(starts[i]) < 4 {
			t.Fatalf("fragment %d: the rule replayed gives %d chunks, the build %d", i, len(starts[i]), p.Fragment(i).NumChunks())
		}
	}
	// middle is the id range of a middle chunk of fragment i.
	middle := func(i int) (graph.VertexID, graph.VertexID) {
		k := len(starts[i]) / 2
		return starts[i][k], starts[i][k+1]
	}
	// entries sums the list entries fragment i holds for the ids [lo,hi).
	entries := func(i int, lo, hi graph.VertexID) int {
		n := 0
		for v := lo; v < hi; v++ {
			if adj := p.Fragment(i).Adjacency(v); adj != nil {
				n += adj.LocalDegree()
			}
		}
		return n
	}
	var emptied [][2]graph.VertexID
	return []func() [][2]graph.VertexID{
		func() [][2]graph.VertexID { // a hub holding a chunk of its own
			f := p.Fragment(0)
			var hub graph.VertexID
			f.Vertices(func(v graph.VertexID, adj *partition.Adj) {
				if adj.LocalDegree() > f.Adjacency(hub).LocalDegree() {
					hub = v
				}
			})
			k, found := slices.BinarySearch(starts[0], hub)
			if !found {
				k--
			}
			lo, hi := starts[0][k], nv
			if k+1 < len(starts[0]) {
				hi = starts[0][k+1]
			}
			if d := f.Adjacency(hub).LocalDegree(); entries(0, lo, hi) != d || d <= (2*f.NumArcs()+63)/64 {
				t.Fatalf("hub %d of fragment 0 does not hold a chunk of its own", hub)
			}
			var touched [][2]graph.VertexID
			for _, x := range slices.Clone(f.Adjacency(hub).Out) {
				if del(hub, x, 0) {
					touched = append(touched, [2]graph.VertexID{hub, x})
					break
				}
			}
			for y := nv - 1; len(touched) < 2; y-- {
				if ins(hub, y, 0) {
					touched = append(touched, [2]graph.VertexID{hub, y})
				}
			}
			return touched
		},
		func() [][2]graph.VertexID { // a middle chunk emptied by deletes
			lo, hi := middle(1)
			for v := lo; v < hi; v++ {
				if adj := p.Fragment(1).Adjacency(v); adj != nil {
					for _, w := range slices.Clone(adj.Out) {
						emptied = append(emptied, [2]graph.VertexID{v, w})
					}
					for _, w := range slices.Clone(adj.In) {
						emptied = append(emptied, [2]graph.VertexID{w, v})
					}
				}
			}
			emptied = slices.DeleteFunc(emptied, func(e [2]graph.VertexID) bool { return !del(e[0], e[1], 1) })
			if len(emptied) == 0 || entries(1, lo, hi) != 0 {
				t.Fatalf("middle chunk [%d,%d) of fragment 1: %d edges deleted, %d entries left", lo, hi, len(emptied), entries(1, lo, hi))
			}
			return emptied
		},
		func() [][2]graph.VertexID { // ... and refilled
			for _, e := range emptied {
				if !ins(e[0], e[1], 1) {
					t.Fatalf("edge %v not reinsertable", e)
				}
			}
			return emptied
		},
		func() [][2]graph.VertexID { // a vertex copy added in a middle chunk
			for k := 1; k+2 < len(starts[2]); k++ {
				for x := starts[2][k]; x < starts[2][k+1]; x++ {
					if p.Fragment(2).Has(x) {
						continue
					}
					for y := graph.VertexID(0); y < nv; y++ {
						if ins(x, y, 2) {
							if !p.Fragment(2).Has(x) {
								t.Fatalf("vertex %d has no copy in fragment 2 after an insert placed its edge there", x)
							}
							return [][2]graph.VertexID{{x, y}}
						}
					}
				}
			}
			t.Fatalf("fragment 2 holds every id of its middle chunks")
			return nil
		},
		func() [][2]graph.VertexID { // a chunk grown past twice its size
			lo, hi := middle(3)
			before := entries(3, lo, hi)
			var grown [][2]graph.VertexID
			for y := graph.VertexID(0); entries(3, lo, hi) <= 2*before && y < nv; y++ {
				for u := lo; u < hi; u++ {
					if p.Fragment(3).Has(u) && ins(u, y, 3) {
						grown = append(grown, [2]graph.VertexID{u, y})
					}
				}
			}
			if entries(3, lo, hi) <= 2*before {
				t.Fatalf("middle chunk [%d,%d) of fragment 3 grew from %d to only %d entries", lo, hi, before, entries(3, lo, hi))
			}
			return grown
		},
	}
}

// publishFixture is the serving plane's write path on the benchmark's
// composite: the five-model ME2H composite of a 6000-vertex power-law
// graph with 8 fragments, cut once, and a seeded wave of two batches,
// each deleting and re-inserting 4 edges routed by locality (as the
// store routes an insert without destinations).
func publishFixture(tb testing.TB) (*Composite, func()) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 6000, AvgDeg: 8, Exponent: 2.1, Seed: 1})
	ec, err := partitioner.FennelEdgeCut(g, 8, partitioner.FennelConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	c, _, err := ME2H(ec, costmodel.ReferenceModels(), Options{})
	if err != nil {
		tb.Fatal(err)
	}
	c.CloneCOW()
	rng := rand.New(rand.NewSource(1))
	wave := func() {
		for m := 0; m < 2*4; m++ {
			u := graph.VertexID(rng.Intn(g.NumVertices()))
			nb := g.OutNeighbors(u)
			if len(nb) == 0 {
				m--
				continue
			}
			v := nb[rng.Intn(len(nb))]
			c.DeleteEdge(u, v)
			dest := make([]int, c.K())
			for j := range dest {
				dest[j] = refine.RouteFragment(c.Partition(j), u, v)
			}
			if err := c.InsertEdge(u, v, dest); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return c, wave
}

// BenchmarkPublish times the epoch cut of publishFixture's waves:
// CloneCOW folds what the wave touched. publish-ms/op and B/op cover
// the cut alone.
func BenchmarkPublish(b *testing.B) {
	c, wave := publishFixture(b)
	var cut time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		wave()
		b.StartTimer()
		t0 := time.Now()
		c.CloneCOW()
		cut += time.Since(t0)
	}
	b.ReportMetric(float64(cut.Microseconds())/1000/float64(b.N), "publish-ms/op")
}

// TestPublishOwnsTouchedChunksOnly counts what a cut of
// BenchmarkPublish's waves owns: ShareStats(prev).OwnedBytes, the
// approx_new_bytes of /metrics, averaged over 20 seeded waves. When a
// fold re-packed every touched fragment whole the mean was 13,830,997
// bytes (this test's 20 waves, measured on the whole-fragment fold it
// replaced); re-packing only the touched chunks must own at most a
// fifth of that.
func TestPublishOwnsTouchedChunksOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 6000-vertex five-model composite")
	}
	const waves, wholeFragments = 20, 13_830_997
	c, wave := publishFixture(t)
	prev := c.CloneCOW()
	var owned int64
	for w := 0; w < waves; w++ {
		wave()
		next := c.CloneCOW()
		owned += next.ShareStats(prev).OwnedBytes
		prev = next
	}
	t.Logf("mean owned bytes per cut: %d", owned/waves)
	if mean := owned / waves; mean*5 > wholeFragments {
		t.Fatalf("a cut owns %d bytes on average, want at most a fifth of %d", mean, wholeFragments)
	}
}

type wccFingerprint struct {
	value      float64
	checksum   uint64
	supersteps int
}

func runWCC(t *testing.T, p *partition.Partition) wccFingerprint {
	t.Helper()
	out, err := algorithms.Run(engine.NewCluster(p).UsePool(pool.Serial()), costmodel.WCC, algorithms.Options{})
	if err != nil {
		t.Fatalf("WCC run: %v", err)
	}
	return wccFingerprint{value: out.Value, checksum: out.Checksum, supersteps: out.Report.Supersteps}
}
