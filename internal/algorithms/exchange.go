package algorithms

import (
	"slices"

	"adp/internal/engine"
	"adp/internal/graph"
)

// neighborExchange is the shared mirror→master→requester adjacency
// protocol used by TC and CN (Example 1(2): split vertices must ship
// their neighbour lists before triangles/pairs can be verified).
//
// Superstep 0: every copy of a border vertex whose MASTER copy is
// incomplete ships its local list to the master; workers resolve
// locally-complete needs and send requests for the rest.
// Superstep 1: masters merge their own list with the shares and answer
// requests — incurring the dG(v)·r(v)·I(v)-shaped communication that
// gTC models.
// Superstep 2: requesters install the responses; compute can start.
type neighborExchange struct {
	// in selects the local adjacency exchanged: in-neighbours for CN,
	// out-neighbours (undirected neighbours) for TC.
	in bool
	// needs marks, by local id, the vertices this worker must know the
	// full list of.
	needs func(w *engine.WorkerCtx, need []bool)
}

// exchState is the exchange's per-worker state, addressed by local id.
// Every list the worker sorts, merges or ships is carved from one
// arena, so a warm worker exchanges without allocating.
type exchState struct {
	// full[l] is the complete id-sorted neighbour list of local vertex
	// l; empty when this worker has no use for it. It points into an
	// arena (this worker's, or the answering master's) that stays
	// untouched until its owner's next Run.
	full [][]graph.VertexID
	// pending lists the needed vertices this worker masters but holds
	// incompletely; superstep 1 resolves them from the shares.
	pending []int32

	// Reusable buffers, each refilled by the superstep that reads it. A
	// carved arena segment is never written again; a grown arena leaves
	// earlier segments valid in the old one.
	arena []graph.VertexID
	need  []bool
	// merged memoises superstep 1's mergedList by local id: a map,
	// because a master merges only the few vertices it is asked about.
	merged map[int32][]graph.VertexID
	// head[l] / next[i] chain the inbox indices of the share messages
	// about local vertex l, in delivery order, -1 ending a chain.
	head, next []int32
	parts      [][]graph.VertexID // mergedList's operands
}

const (
	kindAdjShare uint8 = iota + 20
	kindAdjReq
	kindAdjResp
)

// list returns the exchanged local adjacency of local vertex l.
func (e *neighborExchange) list(pl *engine.Plan, l int) []graph.VertexID {
	if e.in {
		return pl.Adjs[l].In
	}
	return pl.Adjs[l].Out
}

// carve appends the id-sorted, duplicate-free union of lists to the
// arena and returns it as a capacity-limited segment.
func (st *exchState) carve(lists ...[]graph.VertexID) []graph.VertexID {
	start := len(st.arena)
	for _, l := range lists {
		st.arena = append(st.arena, l...)
	}
	seg := st.arena[start:]
	slices.Sort(seg)
	seg = slices.Compact(seg)
	st.arena = st.arena[:start+len(seg)]
	return seg[:len(seg):len(seg)]
}

func (e *neighborExchange) step0(w *engine.WorkerCtx, st *exchState) {
	p, pl := w.Partition(), w.Plan()
	nl := len(pl.IDs)
	st.full, st.need = sized(st.full, nl), sized(st.need, nl)
	st.pending, st.arena = st.pending[:0], st.arena[:0]
	// Share local lists of border vertices whose master is incomplete.
	for l, f := range pl.Flags {
		if f&engine.FlagShares != 0 {
			x := pl.IDs[l]
			w.Send(p.Master(x), engine.Message{V: x, Kind: kindAdjShare, Adj: st.carve(e.list(pl, l))})
		}
	}
	// Resolve needs.
	e.needs(w, st.need)
	for l, needed := range st.need {
		if !needed {
			continue
		}
		switch f := pl.Flags[l]; {
		case f&engine.FlagComplete != 0:
			st.full[l] = st.carve(e.list(pl, l))
		case f&engine.FlagMaster != 0:
			st.pending = append(st.pending, int32(l))
		default:
			// The requester id rides in Data[0] so the master knows
			// where to respond.
			x := pl.IDs[l]
			w.SendVal(p.Master(x), x, kindAdjReq, float64(w.ID()))
		}
	}
}

func (e *neighborExchange) step1(w *engine.WorkerCtx, st *exchState, inbox []engine.Message) {
	pl := w.Plan()
	nl := len(pl.IDs)
	// Chain the shares per subject, walking the inbox backwards so each
	// chain runs in delivery order.
	st.head, st.next = sized(st.head, nl), sized(st.next, len(inbox))
	for l := range st.head {
		st.head[l] = -1
	}
	for i := len(inbox) - 1; i >= 0; i-- {
		if m := inbox[i]; m.Kind == kindAdjShare {
			l := pl.Local[m.V]
			st.next[i], st.head[l] = st.head[l], int32(i)
		}
	}
	if st.merged == nil {
		st.merged = map[int32][]graph.VertexID{}
	}
	clear(st.merged)
	mergedList := func(l int32) []graph.VertexID {
		list, ok := st.merged[l]
		if !ok {
			st.parts = append(st.parts[:0], e.list(pl, int(l)))
			for i := st.head[l]; i >= 0; i = st.next[i] {
				st.parts = append(st.parts, inbox[i].Adj)
			}
			list = st.carve(st.parts...)
			w.ChargeVertex(pl.IDs[l], float64(len(list)))
			st.merged[l] = list
		}
		return list
	}
	for _, m := range inbox {
		if m.Kind == kindAdjReq {
			list := mergedList(pl.Local[m.V])
			w.Send(int(m.Data[0]), engine.Message{V: m.V, Kind: kindAdjResp, Adj: list})
			w.ChargeVertexComm(m.V, float64(len(list)))
		}
	}
	for _, l := range st.pending {
		st.full[l] = mergedList(l)
	}
	// Shares for un-requested vertices still incurred wire cost;
	// attribute it to the master copy for the training log.
	for l, i := range st.head {
		if i < 0 || pl.Flags[l]&engine.FlagMaster == 0 {
			continue
		}
		total := 0
		for ; i >= 0; i = st.next[i] {
			total += len(inbox[i].Adj)
		}
		w.ChargeVertexComm(pl.IDs[l], float64(total))
	}
}

func (e *neighborExchange) step2(w *engine.WorkerCtx, st *exchState, inbox []engine.Message) {
	pl := w.Plan()
	for _, m := range inbox {
		if m.Kind == kindAdjResp {
			st.full[pl.Local[m.V]] = m.Adj
		}
	}
}
