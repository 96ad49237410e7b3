package engine

import (
	"adp/internal/graph"
	"adp/internal/partition"
)

// VertexFlags are the placement facts of one vertex copy that the
// algorithms would otherwise re-derive from the partition on every
// superstep.
type VertexFlags uint8

const (
	// FlagMaster: this worker hosts the vertex's master copy.
	FlagMaster VertexFlags = 1 << iota
	// FlagBorder: the vertex is replicated across fragments.
	FlagBorder
	// FlagComplete: this copy holds every arc incident to the vertex.
	FlagComplete
	// FlagCompute: a per-vertex contribution that must count once
	// cluster-wide counts at this copy — the e-cut node, or the master
	// among the copies of a v-cut vertex.
	FlagCompute
	// FlagShares: a border copy whose master sits elsewhere and is
	// incomplete, so the master learns the vertex's full adjacency
	// only from lists this copy ships to it.
	FlagShares
)

// Plan is a worker's scan plan: its fragment's packed arrays, addressed
// by local id, plus what the partition's placement says about every
// local vertex and — in the two Scans — about every stored arc. It is a
// pure function of the compiled fragment and the placement, both
// immutable while the cluster is in use, so it is built once, on first
// use, and shared by every later superstep and Run.
type Plan struct {
	// The fragment's arrays: IDs[l] is the vertex with local id l,
	// Local the inverse remap, Adjs[l] its local adjacency.
	partition.Packed
	// Flags[l] describes the copy of IDs[l] held here.
	Flags []VertexFlags

	in, out *Scan
}

// Scan is one direction of the plan: the fragment's packed in-lists (or
// out-lists) with every entry translated to its local id, and the
// answer of ResponsibleFor cached for every list position.
type Scan struct {
	// Off[l]:Off[l+1] are the positions of local vertex l's list.
	Off []int32
	// NbrID[k] is the vertex at list position k (the fragment's packed
	// array, in the order Adjs lists it) and Nbr[k] its local id —
	// both endpoints of a stored arc have a copy here.
	NbrID []graph.VertexID
	Nbr   []int32
	// resp has bit k set when this worker is responsible for the arc
	// at position k on behalf of the vertex whose list it is in.
	resp []uint64
}

// Responsible reports whether this worker processes the arc at list
// position k for the list's vertex: ResponsibleFor as an array read.
func (s *Scan) Responsible(k int32) bool { return s.resp[k>>6]&(1<<(uint32(k)&63)) != 0 }

// AnyResponsible reports whether local vertex l has a list position
// this worker is responsible for.
func (s *Scan) AnyResponsible(l int) bool {
	for k := s.Off[l]; k < s.Off[l+1]; k++ {
		if s.Responsible(k) {
			return true
		}
	}
	return false
}

// Plan returns the worker's scan plan without its Scans, building it
// on first use: one pass over the local vertices.
func (w *WorkerCtx) Plan() *Plan {
	if w.plan != nil {
		return w.plan
	}
	p := w.cluster.p
	pl := &Plan{Packed: w.frag.Packed()}
	pl.Flags = make([]VertexFlags, len(pl.IDs))
	for l, v := range pl.IDs {
		var f VertexFlags
		master := p.Master(v)
		if master == w.id {
			f |= FlagMaster
		}
		if p.IsComplete(w.id, v) {
			f |= FlagComplete
		}
		if p.IsBorder(v) {
			f |= FlagBorder
			if master != w.id && !p.IsComplete(master, v) {
				f |= FlagShares
			}
		}
		if cf := int(w.cluster.computeFrag[v]); cf == w.id || cf < 0 && master == w.id {
			f |= FlagCompute
		}
		pl.Flags[l] = f
	}
	w.plan = pl
	return pl
}

// InScan returns the plan's scan of the in-lists, where the list's
// vertex is the target of every arc; built on first use.
func (w *WorkerCtx) InScan() *Scan {
	pl := w.Plan()
	if pl.in == nil {
		pl.in = w.buildScan(pl, pl.In, true)
	}
	return pl.in
}

// OutScan returns the plan's scan of the out-lists, where the list's
// vertex is the source of every arc; built on first use.
func (w *WorkerCtx) OutScan() *Scan {
	pl := w.Plan()
	if pl.out == nil {
		pl.out = w.buildScan(pl, pl.Out, false)
	}
	return pl.out
}

// buildScan translates one packed array and fills the responsibility
// bits by the placement rule, subject = the vertex whose list an arc is
// in. One pass over the stored arcs; only the arcs of v-cut subjects
// cost a slot lookup.
func (w *WorkerCtx) buildScan(pl *Plan, packed []graph.VertexID, in bool) *Scan {
	s := &Scan{
		Off:   make([]int32, len(pl.IDs)+1),
		NbrID: packed,
		Nbr:   make([]int32, len(packed)),
		resp:  make([]uint64, (len(packed)+63)/64),
	}
	k := int32(0)
	for l, subject := range pl.IDs {
		s.Off[l] = k
		list := pl.Adjs[l].Out
		if in {
			list = pl.Adjs[l].In
		}
		for _, x := range list {
			s.Nbr[k] = pl.Local[x]
			u, v := subject, x
			if in {
				u, v = x, subject
			}
			if w.responsibleStored(subject, u, v) {
				s.resp[k>>6] |= 1 << (uint32(k) & 63)
			}
			k++
		}
	}
	s.Off[len(pl.IDs)] = k
	return s
}
