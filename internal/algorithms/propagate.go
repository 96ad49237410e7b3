package algorithms

import (
	"adp/internal/engine"
	"adp/internal/graph"
	"adp/internal/partition"
)

// propEntry / propHeap implement the value-ordered local sweep. The
// heap is hand-rolled (instead of container/heap) so pushes don't box
// entries into interfaces — the sweep is the innermost loop of WCC and
// SSSP and must not allocate per relaxation.
type propEntry struct {
	l   int32 // local id of the vertex (dense state index)
	val float64
}

type propHeap []propEntry

func (h *propHeap) push(e propEntry) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent].val <= s[i].val {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

func (h *propHeap) pop() propEntry {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	i := 0
	for {
		c := 2*i + 1
		if c >= len(s) {
			break
		}
		if c+1 < len(s) && s[c+1].val < s[c].val {
			c++
		}
		if s[i].val <= s[c].val {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	return top
}

// propagation implements the shared skeleton of WCC and SSSP: a
// monotone min-value propagation. Each superstep a worker (1) applies
// incoming value updates, (2) relaxes values to a local fixpoint over
// its fragment's arcs, and (3) synchronises changed border values
// through the master copy (mirror → master → mirrors), the
// master-mirror protocol whose cost gA models.
//
// Because min is idempotent and commutative, replicated arcs need no
// responsibility dedup — so the sweep reads only the plan's per-vertex
// part, never its Scans, and a WCC/SSSP cluster never builds them.
type propagation struct {
	// relax offers st.lower(u, nv) to every neighbour u that v's value
	// val improves.
	relax func(st *propState, v graph.VertexID, val float64, adj *partition.Adj)
	// init returns the starting value of v.
	init func(v graph.VertexID) float64
	// scanDegree is the number of arcs relax scans for v — the
	// per-vertex cost unit (full local degree for WCC, out-degree for
	// SSSP, matching hWCC and hSSSP).
	scanDegree func(adj *partition.Adj) int
}

// propState keeps per-vertex values in dense slices indexed by local
// id, plus the reusable sweep heap and mirror scratch, so steady-state
// supersteps allocate nothing; reuseState keeps all of it warm between
// Runs.
type propState struct {
	val   []float64 // by local id
	dirty []bool    // border copies whose value changed since last sync
	// synced marks border masters that already contributed a
	// communication training sample; per-vertex comm cost is charged
	// once (∝ r(v)), matching the gWCC/gSSSP shape, while every
	// broadcast still pays wire bytes.
	synced []bool
	// The heap is empty at every barrier; pl is immutable.
	pq      propHeap
	mirrors []int // AppendMirrors scratch
	pl      *engine.Plan
}

// lower offers vertex u the value nv: taken when smaller, which queues
// u for the sweep and marks a border copy for synchronisation.
func (st *propState) lower(u graph.VertexID, nv float64) {
	if lu := st.pl.Local[u]; lu >= 0 && nv < st.val[lu] {
		st.val[lu] = nv
		st.pq.push(propEntry{lu, nv})
		if st.pl.Flags[lu]&engine.FlagBorder != 0 {
			st.dirty[lu] = true
		}
	}
}

const (
	kindToMaster uint8 = iota + 1
	kindToMirror
)

// run executes the propagation and returns the value of every vertex,
// indexed by vertex id and read from master copies (a vertex no
// fragment holds keeps its starting value).
func (pr *propagation) run(c *engine.Cluster, maxSupersteps int) ([]float64, *engine.Report, error) {
	p := c.Partition()
	step := func(w *engine.WorkerCtx, s int, in engine.Inbox) bool {
		st, _ := w.State.(*propState)
		if st == nil {
			st = reuseState[propState](w)
			st.pl = w.Plan()
			nl := len(st.pl.IDs)
			st.val, st.dirty, st.synced = sized(st.val, nl), sized(st.dirty, nl), sized(st.synced, nl)
			for l, v := range st.pl.IDs {
				st.val[l] = pr.init(v)
			}
		}
		pl := st.pl
		// (1) apply incoming updates.
		st.pq = st.pq[:0]
		for _, m := range in.Vals {
			st.lower(m.V, m.X)
		}
		w.AddWork(float64(in.Len()))
		// On the first superstep every vertex is a seed, and the full
		// scan is where per-vertex cost samples come from: each vertex
		// is charged its local degree exactly once (the hWCC/hSSSP
		// shape); all later incremental relaxations count as fragment
		// work only.
		if s == 0 {
			for l, v := range pl.IDs {
				st.pq.push(propEntry{int32(l), st.val[l]})
				w.ChargeVertex(v, float64(pr.scanDegree(pl.Adjs[l])))
			}
		}
		// (2) local fixpoint as a value-ordered sweep (a local
		// Dijkstra): values only decrease, so popping in ascending
		// order settles each vertex at most once per superstep and
		// keeps the work insensitive to relaxation order.
		for len(st.pq) > 0 {
			top := st.pq.pop()
			if top.val > st.val[top.l] {
				continue // stale entry
			}
			adj := pl.Adjs[top.l]
			w.AddWork(float64(pr.scanDegree(adj)))
			pr.relax(st, pl.IDs[top.l], top.val, adj)
		}
		// (3) synchronise borders through masters, in ascending local
		// id order.
		changed := false
		for l, d := range st.dirty {
			if !d {
				continue
			}
			changed = true
			st.dirty[l] = false
			v := pl.IDs[l]
			if pl.Flags[l]&engine.FlagMaster != 0 {
				st.mirrors = w.AppendMirrors(st.mirrors[:0], v)
				for _, dst := range st.mirrors {
					w.SendVal(dst, v, kindToMirror, st.val[l])
				}
				if !st.synced[l] {
					st.synced[l] = true
					w.ChargeVertexComm(v, float64(len(st.mirrors)))
				}
			} else {
				w.SendVal(p.Master(v), v, kindToMaster, st.val[l])
			}
		}
		return !changed
	}
	rep, err := c.Run(nil, step, maxSupersteps)
	if err != nil {
		return nil, rep, err
	}
	// Collect values from master copies.
	out := make([]float64, p.Graph().NumVertices())
	for v := range out {
		out[v] = pr.init(graph.VertexID(v))
	}
	for i := 0; i < p.NumFragments(); i++ {
		st, _ := c.Worker(i).State.(*propState)
		if st == nil {
			continue
		}
		for l, v := range st.pl.IDs {
			if st.pl.Flags[l]&engine.FlagMaster != 0 {
				out[v] = st.val[l]
			}
		}
	}
	return out, rep, nil
}

// WCCResult holds per-vertex component labels from a distributed run.
type WCCResult struct {
	Labels []graph.VertexID
	Count  int
}

// RunWCC computes weakly connected components over the cluster's
// partition by min-label propagation.
func RunWCC(c *engine.Cluster) (WCCResult, *engine.Report, error) {
	pr := &propagation{
		init:       func(v graph.VertexID) float64 { return float64(v) },
		scanDegree: func(adj *partition.Adj) int { return adj.LocalDegree() },
		relax: func(st *propState, v graph.VertexID, val float64, adj *partition.Adj) {
			for _, u := range adj.Out {
				st.lower(u, val)
			}
			for _, u := range adj.In {
				st.lower(u, val)
			}
		},
	}
	vals, rep, err := pr.run(c, 10000)
	if err != nil {
		return WCCResult{}, rep, err
	}
	// Labels are smallest member ids, so a component's one vertex
	// labelled with itself counts it.
	res := WCCResult{Labels: make([]graph.VertexID, len(vals))}
	for v, val := range vals {
		res.Labels[v] = graph.VertexID(val)
		if int(res.Labels[v]) == v {
			res.Count++
		}
	}
	return res, rep, nil
}

// SSSPResult holds per-vertex shortest distances (Unreachable when no
// path exists).
type SSSPResult struct {
	Dist []float64
}

// Unreachable is the distance reported for vertices with no path from
// the source.
const Unreachable = 1e300

// RunSSSP computes single-source shortest paths over out-edges with
// EdgeWeight, matching SSSPSeq.
func RunSSSP(c *engine.Cluster, source graph.VertexID) (SSSPResult, *engine.Report, error) {
	pr := &propagation{
		init: func(v graph.VertexID) float64 {
			if v == source {
				return 0
			}
			return Unreachable
		},
		scanDegree: func(adj *partition.Adj) int { return len(adj.Out) },
		relax: func(st *propState, v graph.VertexID, val float64, adj *partition.Adj) {
			if val >= Unreachable {
				return
			}
			for _, u := range adj.Out {
				st.lower(u, val+EdgeWeight(v, u))
			}
		},
	}
	dist, rep, err := pr.run(c, 10000)
	if err != nil {
		return SSSPResult{}, rep, err
	}
	return SSSPResult{Dist: dist}, rep, nil
}
