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
	// full list of. It may read the plan and key, nothing else.
	needs func(w *engine.WorkerCtx, need []bool)
	// key is the one run input needs depends on (CN's θ; 0 for TC).
	key int
}

// exchState is the exchange's per-worker state, addressed by local id.
//
// Its topology — the id-sorted local lists, a master's merged lists,
// the needs — is a pure function of the cluster's plans (and of the
// needs key), and the plans are immutable while the cluster is in use.
// So it is built on the first Run that asks for it and reused by every
// later one: a warm exchange still sends every share, request and
// response and makes every charge, but sorts and merges nothing. Each
// list is carved once into an arena that is only ever appended to, so
// a segment handed to another worker is never rewritten; a grown arena
// leaves earlier segments valid in the old one.
type exchState struct {
	// pl is the plan the topology below was built for.
	pl    *engine.Plan
	arena []graph.VertexID
	// carves counts the lists ever carved, for the tests.
	carves int
	// own[l] locates the id-sorted local list of local vertex l,
	// merged[l] (at a master) its complete list; unbuilt until first use.
	own, merged []span
	// need is what needs marked for needKey.
	need    []bool
	needKey int

	// Per-run state, refilled by the superstep that reads it.
	//
	// full[l] is the complete id-sorted neighbour list of local vertex
	// l; empty when this worker has no use for it. It points into an
	// arena, this worker's or the answering master's.
	full [][]graph.VertexID
	// pending lists the needed vertices this worker masters but holds
	// incompletely; superstep 1 resolves them from the merged lists.
	pending []int32
	// charged marks the merged lists charged to their master this run.
	charged []bool
	// head[l] / next[i] chain the inbox indices of the share messages
	// about local vertex l, in delivery order, -1 ending a chain.
	head, next []int32
	parts      [][]graph.VertexID // merged's operands
}

// span locates arena[lo:hi]; lo < 0 marks a list not built yet.
type span struct{ lo, hi int32 }

var unbuilt = span{-1, -1}

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
// arena and returns where it landed.
func (st *exchState) carve(lists ...[]graph.VertexID) span {
	st.carves++
	start := len(st.arena)
	for _, l := range lists {
		st.arena = append(st.arena, l...)
	}
	seg := st.arena[start:]
	slices.Sort(seg)
	seg = slices.Compact(seg)
	st.arena = st.arena[:start+len(seg)]
	return span{int32(start), int32(len(st.arena))}
}

// seg returns the arena segment sp as a capacity-limited slice.
func (st *exchState) seg(sp span) []graph.VertexID {
	return st.arena[sp.lo:sp.hi:sp.hi]
}

// ownList returns local vertex l's id-sorted local list, carving it on
// first use.
func (e *neighborExchange) ownList(st *exchState, pl *engine.Plan, l int) []graph.VertexID {
	if st.own[l].lo < 0 {
		st.own[l] = st.carve(e.list(pl, l))
	}
	return st.seg(st.own[l])
}

// topology gets st ready for a run on w's plan: the cached topology
// when it was built for this plan (and, for the needs, this key), a
// fresh build otherwise.
func (e *neighborExchange) topology(w *engine.WorkerCtx, st *exchState) {
	pl := w.Plan()
	nl := len(pl.IDs)
	if st.pl != pl {
		*st = exchState{pl: pl, own: make([]span, nl), merged: make([]span, nl)}
		for l := range st.own {
			st.own[l], st.merged[l] = unbuilt, unbuilt
		}
	}
	if st.need == nil || st.needKey != e.key {
		st.need, st.needKey = sized(st.need, nl), e.key
		e.needs(w, st.need)
	}
}

func (e *neighborExchange) step0(w *engine.WorkerCtx, st *exchState) {
	e.topology(w, st)
	p, pl := w.Partition(), w.Plan()
	st.full, st.pending = sized(st.full, len(pl.IDs)), st.pending[:0]
	// Share local lists of border vertices whose master is incomplete.
	for l, f := range pl.Flags {
		if f&engine.FlagShares != 0 {
			x := pl.IDs[l]
			w.Send(p.Master(x), engine.Message{V: x, Kind: kindAdjShare, Adj: e.ownList(st, pl, l)})
		}
	}
	// Resolve needs.
	for l, needed := range st.need {
		if !needed {
			continue
		}
		switch f := pl.Flags[l]; {
		case f&engine.FlagComplete != 0:
			st.full[l] = e.ownList(st, pl, l)
		case f&engine.FlagMaster != 0:
			st.pending = append(st.pending, int32(l))
		default:
			// The requester id rides in X so the master knows where to
			// respond.
			x := pl.IDs[l]
			w.SendVal(p.Master(x), x, kindAdjReq, float64(w.ID()))
		}
	}
}

// merged returns master l's complete list — its own list merged with
// the shares chained at head[l], built on first use — and charges the
// merge to l once per run.
func (e *neighborExchange) merged(w *engine.WorkerCtx, st *exchState, inbox []engine.Message, l int32) []graph.VertexID {
	pl := st.pl
	if st.merged[l].lo < 0 {
		st.parts = append(st.parts[:0], e.list(pl, int(l)))
		for i := st.head[l]; i >= 0; i = st.next[i] {
			st.parts = append(st.parts, inbox[i].Adj)
		}
		st.merged[l] = st.carve(st.parts...)
	}
	list := st.seg(st.merged[l])
	if !st.charged[l] {
		st.charged[l] = true
		w.ChargeVertex(pl.IDs[l], float64(len(list)))
	}
	return list
}

func (e *neighborExchange) step1(w *engine.WorkerCtx, st *exchState, in engine.Inbox) {
	pl, inbox := w.Plan(), in.Msgs
	nl := len(pl.IDs)
	// Chain the shares per subject, walking the rich lane backwards so
	// each chain runs in delivery order.
	st.head, st.next = sized(st.head, nl), sized(st.next, len(inbox))
	st.charged = sized(st.charged, nl)
	for l := range st.head {
		st.head[l] = -1
	}
	for i := len(inbox) - 1; i >= 0; i-- {
		if m := inbox[i]; m.Kind == kindAdjShare {
			l := pl.Local[m.V]
			st.next[i], st.head[l] = st.head[l], int32(i)
		}
	}
	for _, m := range in.Vals {
		if m.Kind == kindAdjReq {
			list := e.merged(w, st, inbox, pl.Local[m.V])
			w.Send(int(m.X), engine.Message{V: m.V, Kind: kindAdjResp, Adj: list})
			w.ChargeVertexComm(m.V, float64(len(list)))
		}
	}
	for _, l := range st.pending {
		st.full[l] = e.merged(w, st, inbox, l)
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

func (e *neighborExchange) step2(w *engine.WorkerCtx, st *exchState, in engine.Inbox) {
	pl := w.Plan()
	for _, m := range in.Msgs {
		if m.Kind == kindAdjResp {
			st.full[pl.Local[m.V]] = m.Adj
		}
	}
}
