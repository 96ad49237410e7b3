package algorithms

import (
	"errors"

	"adp/internal/engine"
	"adp/internal/graph"
)

const kindTCCount uint8 = 30

// sortCost is the n·log2(n) work of sorting/indexing a neighbour list.
func sortCost(n int) float64 {
	if n < 2 {
		return float64(n)
	}
	f := float64(n)
	logN := 1.0
	for m := n; m > 1; m >>= 1 {
		logN++
	}
	return f * logN
}

type tcState struct {
	exch exchState
	// total is worker 0's aggregate.
	total int64
	// The part of each full list above its vertex in the TC order,
	// upper[upperOff[l]:upperOff[l+1]]: like the exchange's topology, a
	// function of the plan alone, so filled by the first Run on upperFor
	// and reused by every later one.
	upper    []graph.VertexID
	upperOff []int32
	upperFor *engine.Plan
}

// RunTC counts the triangles of the cluster's (undirected) graph.
// Triangle {a≺b≺c} is counted at the worker responsible for edge
// (a,b) after the neighbour exchange delivers full adjacency of split
// vertices (the Fig. 1(e)/(f) communication TC incurs on v-cut
// vertices). The total lands on worker 0.
//
// The count at edge (a,b) is |N⁺(a) ∩ N⁺(b)|, N⁺(x) being x's
// neighbours above x in the TC order: c closes a triangle counted here
// iff it neighbours both and b ≺ c, and a ≺ b ≺ c puts such a c in
// N⁺(a) as well, the order being transitive. Each N⁺ is filtered out of
// the full list once per vertex, so an edge merges two short upper
// lists instead of two full hub lists; the charged work still follows
// the full lists' lengths, the shape hTC learns.
func RunTC(c *engine.Cluster) (int64, *engine.Report, error) {
	g := c.Partition().Graph()
	if !g.Undirected() {
		return 0, nil, errors.New("algorithms: TC requires an undirected graph")
	}
	// leads: this worker counts the triangles of a's edge at position k.
	leads := func(out *engine.Scan, a graph.VertexID, k int32) bool {
		return out.Responsible(k) && TCLess(g, a, out.NbrID(k))
	}
	// TC's needs depend on the plan alone: the key stays 0.
	exch := &neighborExchange{
		needs: func(w *engine.WorkerCtx, need []bool) {
			out := w.OutScan()
			for l, a := range w.Plan().IDs {
				for k := out.Off[l]; k < out.Off[l+1]; k++ {
					if leads(out, a, k) {
						need[l], need[out.Nbr[k]] = true, true
					}
				}
			}
		},
	}
	step := func(w *engine.WorkerCtx, s int, in engine.Inbox) bool {
		switch s {
		case 0:
			st := reuseState[tcState](w)
			st.total = 0
			exch.step0(w, &st.exch)
			return false
		case 1:
			st := w.State.(*tcState)
			exch.step1(w, &st.exch, in)
			return false
		case 2:
			st := w.State.(*tcState)
			exch.step2(w, &st.exch, in)
			pl, out, full := w.Plan(), w.OutScan(), st.exch.full
			if st.upperFor != pl {
				st.upper, st.upperOff, st.upperFor = st.upper[:0], sized(st.upperOff, len(pl.IDs)+1), pl
				for l, a := range pl.IDs {
					for _, c := range full[l] {
						if TCLess(g, a, c) {
							st.upper = append(st.upper, c)
						}
					}
					st.upperOff[l+1] = int32(len(st.upper))
				}
			}
			upper := func(l int32) []graph.VertexID { return st.upper[st.upperOff[l]:st.upperOff[l+1]] }
			var count int64
			for l, a := range pl.IDs {
				na := full[l]
				if len(na) == 0 {
					continue
				}
				// Preparing a vertex costs dL (edge-list scan) plus
				// dG·log(dG) (sorting/indexing its full neighbour
				// list) regardless of how many of its edges end up
				// responsible here — the α·dL term of hTC, which the
				// paper's learned model shows dominating until
				// dL·dG grows large.
				lo, hi := out.Off[l], out.Off[l+1]
				w.ChargeVertex(a, float64(hi-lo)+sortCost(len(na)))
				for k := lo; k < hi; k++ {
					if !leads(out, a, k) {
						continue
					}
					lb := out.Nbr[k]
					count += intersectSorted(upper(int32(l)), upper(lb))
					// Each endpoint pays for scanning its own list:
					// a vertex's total cost is then (edges it leads)
					// × its degree — the β·dL·dG shape of hTC —
					// rather than inheriting its neighbours' degrees.
					w.ChargeVertex(a, float64(len(na)))
					w.ChargeVertex(out.NbrID(k), float64(len(full[lb])))
				}
			}
			w.SendVal(0, 0, kindTCCount, float64(count))
			return false
		case 3:
			if w.ID() == 0 {
				st := w.State.(*tcState)
				for _, m := range in.Vals {
					if m.Kind == kindTCCount {
						st.total += int64(m.X)
					}
				}
			}
			return true
		}
		return true
	}
	rep, err := c.Run(nil, step, 5)
	if err != nil {
		return 0, rep, err
	}
	st, _ := c.Worker(0).State.(*tcState)
	if st == nil {
		return 0, rep, nil
	}
	return st.total, rep, nil
}
