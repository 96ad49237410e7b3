package composite

import (
	"math/rand"
	"sync"
	"testing"

	"adp/internal/algorithms"
	"adp/internal/costmodel"
	"adp/internal/engine"
	"adp/internal/gen"
	"adp/internal/graph"
	"adp/internal/partition"
	"adp/internal/partitioner"
	"adp/internal/pool"
)

// TestCloneCOWOracleWaves is the COW-publication property test: random
// update waves flow through the CloneCOW path exactly as the serving
// plane's apply loop publishes epochs, while a deep Clone taken before
// the first wave receives the same mutations and is never cut — its
// partitions stay in their maps and its index in its overlay, the form
// that shares nothing and folds nothing. Every published epoch must be
// bitwise-equal to that oracle at its cut — EqualState in both
// directions, a valid coherence index, the same Locate / StorageArcs /
// CoreArcs answers and (periodically) identical engine fingerprints —
// and must still answer the same after every later wave: a tombstone
// or an insert leaking into a shared index base would change an old
// epoch's Locate. Concurrent readers hold all previously published
// epochs for the whole run, so under -race any write that leaks
// through the structural sharing into an already-published snapshot is
// caught.
func TestCloneCOWOracleWaves(t *testing.T) {
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
	assign := make([]int, g.NumVertices())
	for v := range assign {
		assign[v] = (v + 1) % numFrags
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
	for w := 0; w < waves; w++ {
		// One wave: a mix of deletes of live edges and inserts of new
		// (or previously deleted) arcs, exactly what one POST /updates
		// batch does to the store's composite.
		var probes [][2]graph.VertexID
		for m := 0; m < waveSize; m++ {
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
		if st := epoch.ShareStats(live); st.OwnedFragments != 0 || st.OwnedIndexMaps != 0 {
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
