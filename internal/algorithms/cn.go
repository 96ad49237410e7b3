package algorithms

import (
	"slices"

	"adp/internal/engine"
	"adp/internal/graph"
)

const kindCNCount uint8 = 31

// CNOptions configures a common-neighbour run.
type CNOptions struct {
	// Theta filters out aggregation vertices with global in-degree
	// above the threshold (≤ 0 disables), the paper's memory-bounding
	// practice for Twitter-scale hubs.
	Theta int
}

type cnState struct {
	exch exchState
	// total is worker 0's aggregate.
	total CNResult
	// agg is this worker's aggregate message body (count and the two
	// checksum halves), kept here so a warm run sends it unallocated.
	agg [3]float64
	// h2 holds pairHash's u2 factor for every u2 of the list in hand.
	h2 []uint64
}

// RunCN enumerates common-out-neighbour triples (u1, u2, w): u1 < u2
// both with arcs into w. Pairs at vertex w are formed at the worker
// responsible for the arc (u1, w), pairing it with every later
// in-neighbour from w's FULL in-list (fetched via the neighbour
// exchange when w is split). The per-copy work is therefore
// ~ d+L(w)·d+G(w) — the shape hCN learns. Count and checksum aggregate
// at worker 0 and match CNSeq exactly.
func RunCN(c *engine.Cluster, opts CNOptions) (CNResult, *engine.Report, error) {
	g := c.Partition().Graph()
	inTheta := func(w graph.VertexID) bool {
		return opts.Theta <= 0 || g.InDegree(w) <= opts.Theta
	}
	exch := &neighborExchange{
		in:  true,
		key: max(opts.Theta, 0),
		needs: func(w *engine.WorkerCtx, need []bool) {
			in := w.InScan()
			for l, v := range w.Plan().IDs {
				need[l] = inTheta(v) && g.InDegree(v) >= 2 && in.AnyResponsible(l)
			}
		},
	}
	step := func(w *engine.WorkerCtx, s int, in engine.Inbox) bool {
		switch s {
		case 0:
			st := reuseState[cnState](w)
			st.total = CNResult{}
			exch.step0(w, &st.exch)
			return false
		case 1:
			st := w.State.(*cnState)
			exch.step1(w, &st.exch, in)
			return false
		case 2:
			st := w.State.(*cnState)
			exch.step2(w, &st.exch, in)
			var count int64
			var checksum uint64
			scan := w.InScan()
			for l, v := range w.Plan().IDs {
				fullIn := st.exch.full[l]
				if len(fullIn) == 0 || !inTheta(v) {
					continue
				}
				// pairHash(u, u2, v) with v's factor and every u2's
				// hoisted out of the pair loop, which keeps one multiply.
				// (A needed v has a responsible arc, so none is wasted.)
				vh := uint64(v) * hashW
				st.h2 = st.h2[:0]
				for _, u2 := range fullIn {
					st.h2 = append(st.h2, uint64(u2)*hashU2)
				}
				responsible := 0
				for k := scan.Off[l]; k < scan.Off[l+1]; k++ {
					if !scan.Responsible(k) {
						continue
					}
					responsible++
					// u pairs with the in-neighbours after it in id order.
					u := scan.NbrID(k)
					pos, found := slices.BinarySearch(fullIn, u)
					if found {
						pos++
					}
					count += int64(len(fullIn) - pos)
					uh := uint64(u)*hashU1 ^ vh
					for _, h := range st.h2[pos:] {
						checksum += pairMix(uh ^ h)
					}
				}
				if responsible > 0 {
					w.ChargeVertex(v, float64(responsible*len(fullIn)))
				}
			}
			// The checksum ships as two exact 32-bit halves: float64
			// represents integers below 2^53 exactly, while raw bit
			// reinterpretation would risk NaN payload trouble.
			st.agg = [3]float64{float64(count), float64(checksum >> 32), float64(checksum & 0xffffffff)}
			w.Send(0, engine.Message{Kind: kindCNCount, Data: st.agg[:]})
			return false
		case 3:
			if w.ID() == 0 {
				st := w.State.(*cnState)
				for _, m := range in.Msgs {
					if m.Kind == kindCNCount {
						st.total.Triples += int64(m.Data[0])
						st.total.Checksum += uint64(m.Data[1])<<32 | uint64(m.Data[2])
					}
				}
			}
			return true
		}
		return true
	}
	rep, err := c.Run(nil, step, 5)
	if err != nil {
		return CNResult{}, rep, err
	}
	st, _ := c.Worker(0).State.(*cnState)
	if st == nil {
		return CNResult{}, rep, nil
	}
	return st.total, rep, nil
}
