package algorithms

import "adp/internal/engine"

// PROptions configures a PageRank run.
type PROptions struct {
	Iterations int     // default 10
	Damping    float64 // default 0.85
}

func (o *PROptions) defaults() {
	if o.Iterations == 0 {
		o.Iterations = 10
	}
	if o.Damping == 0 {
		o.Damping = 0.85
	}
}

// prState keeps per-vertex values in dense slices indexed by local id
// (the scan plan's addressing), so the inner loops are array reads and
// a superstep allocates nothing; reuseState keeps the arrays warm
// between Runs.
type prState struct {
	rank    []float64 // by local id
	partial []float64 // by local id; valid where has[l]
	has     []bool    // partial accumulated this iteration
	// Recomputed before every use: contrib[l] = rank[l] / outdeg(l) for
	// the current iteration, and the AppendMirrors scratch.
	contrib []float64
	mirrors []int
}

const (
	kindPartial uint8 = iota + 10
	kindRank
	kindDangling
)

// RunPR computes PageRank over the cluster's partition. Each iteration
// is two supersteps:
//
//	even: every copy accumulates partials over its RESPONSIBLE local
//	      in-arcs (replicated arcs contribute exactly once cluster-
//	      wide), ships border partials to the vertex master and
//	      broadcasts its local dangling mass;
//	odd:  masters fold partials + dangling base into new ranks and
//	      broadcast them to mirrors, which apply them at the start of
//	      the next even superstep.
//
// The even superstep is a flat scan of the worker's in-plan: each
// vertex's share rank/outdeg is divided out once per iteration and the
// in-lists sum it over their responsible positions in list order — the
// operands and order of dividing per arc, so ranks do not depend on the
// plan. The result matches PRSeq up to floating-point summation order.
func RunPR(c *engine.Cluster, opts PROptions) ([]float64, *engine.Report, error) {
	opts.defaults()
	p := c.Partition()
	g := p.Graph()
	n := g.NumVertices()
	invN := 1 / float64(n)

	step := func(w *engine.WorkerCtx, s int, in engine.Inbox) bool {
		pl := w.Plan()
		st, _ := w.State.(*prState)
		if st == nil {
			st = reuseState[prState](w)
			nl := len(pl.IDs)
			st.rank, st.partial, st.has = sized(st.rank, nl), sized(st.partial, nl), sized(st.has, nl)
			for l := range st.rank {
				st.rank[l] = invN
			}
		}
		iter := s / 2
		if iter >= opts.Iterations {
			return true
		}
		w.AddWork(float64(in.Len()))
		if s%2 == 0 {
			// Apply rank broadcasts from the previous odd superstep.
			for _, m := range in.Vals {
				if m.Kind == kindRank {
					st.rank[pl.Local[m.V]] = m.X
				}
			}
			// Dangling mass is counted once, at the vertex's compute
			// copy (e-cut node, or master among v-cut copies).
			st.contrib = sized(st.contrib, len(pl.IDs))
			var dangling float64
			for l, v := range pl.IDs {
				if d := g.OutDegree(v); d > 0 {
					st.contrib[l] = st.rank[l] / float64(d)
				} else if pl.Flags[l]&engine.FlagCompute != 0 {
					dangling += st.rank[l]
				}
			}
			// Accumulate partials over responsible in-arcs, shipping
			// border partials to masters and keeping local ones.
			scan := w.InScan()
			for l, v := range pl.IDs {
				lo, hi := scan.Off[l], scan.Off[l+1]
				sum, any := 0.0, false
				for k := lo; k < hi; k++ {
					if scan.Responsible(k) {
						sum += st.contrib[scan.Nbr[k]]
						any = true
					}
				}
				// The scan walks every local in-arc (the responsibility
				// bit is part of it), so the true per-vertex work is
				// d+L(v) — the shape hPR learns.
				if hi > lo {
					w.ChargeVertex(v, float64(hi-lo))
				}
				if f := pl.Flags[l]; any && f&engine.FlagBorder != 0 && f&engine.FlagMaster == 0 {
					w.SendVal(p.Master(v), v, kindPartial, sum)
					sum, any = 0, false
				}
				st.partial[l], st.has[l] = sum, any
			}
			// Dangling mass to every worker so all masters share the
			// same base next superstep.
			for dst := 0; dst < w.NumWorkers(); dst++ {
				w.SendVal(dst, 0, kindDangling, dangling)
			}
			return false
		}
		// Odd superstep: masters combine.
		var danglingTerm float64
		for _, m := range in.Vals {
			switch m.Kind {
			case kindPartial:
				st.partial[pl.Local[m.V]] += m.X
			case kindDangling:
				danglingTerm += m.X
			}
		}
		base := (1-opts.Damping)*invN + opts.Damping*danglingTerm*invN
		for l, v := range pl.IDs {
			f := pl.Flags[l]
			if f&engine.FlagMaster == 0 {
				continue
			}
			newRank := base + opts.Damping*st.partial[l]
			st.rank[l] = newRank
			w.AddWork(1)
			if f&engine.FlagBorder != 0 {
				st.mirrors = w.AppendMirrors(st.mirrors[:0], v)
				for _, dst := range st.mirrors {
					w.SendVal(dst, v, kindRank, newRank)
				}
				w.ChargeVertexComm(v, float64(len(st.mirrors)))
			}
		}
		return iter+1 >= opts.Iterations
	}
	rep, err := c.Run(nil, step, 2*opts.Iterations+3)
	if err != nil {
		return nil, rep, err
	}
	rank := make([]float64, n)
	for i := 0; i < p.NumFragments(); i++ {
		w := c.Worker(i)
		st, _ := w.State.(*prState)
		if st == nil {
			continue
		}
		pl := w.Plan()
		for l, v := range pl.IDs {
			if pl.Flags[l]&engine.FlagMaster != 0 {
				rank[v] = st.rank[l]
			}
		}
	}
	return rank, rep, nil
}
