package engine

import (
	"fmt"
	"slices"

	"adp/internal/fault"
)

// checkpoint is one globally consistent snapshot taken at a superstep
// barrier: every worker's algorithm state and outbox, every in-flight
// inbox, and the report accumulators as of the barrier. Restoring a
// checkpoint and replaying from ck.next is indistinguishable from a
// run that never failed — the determinism contract the recovery tests
// pin down.
type checkpoint struct {
	// next is the superstep execution resumes at after a restore.
	next      int
	states    []any
	outboxes  [][][]Message
	inboxes   [][]Message
	work      []float64
	msgCount  []int64
	msgBytes  []int64
	critWork  float64
	critBytes float64
	// comp/comm mirror the workers' dense per-vertex recording arrays;
	// snapshot is a slice clone and restore a copy(), the payoff of
	// moving cost recording off maps.
	comp [][]float64
	comm [][]float64
}

// appendClones appends deep copies of a message batch to dst, payload
// slices included, so replayed supersteps cannot mutate checkpointed
// traffic (SendVal payloads in particular live in arenas that replay
// overwrites). snapshot clones into fresh memory; restore passes the
// retained, truncated box so its capacity survives a rollback.
func appendClones(dst, msgs []Message) []Message {
	dst = slices.Grow(dst, len(msgs))
	for _, m := range msgs {
		dst = append(dst, Message{V: m.V, Kind: m.Kind, Data: slices.Clone(m.Data), Adj: slices.Clone(m.Adj)})
	}
	return dst
}

// snapshot captures the barrier state before superstep next. Worker
// states must be nil or implement Snapshotter (and so must the values
// Snapshot returns, see the interface contract).
func (c *Cluster) snapshot(next int, rep *Report) (*checkpoint, error) {
	ck := &checkpoint{
		next:      next,
		states:    make([]any, c.n),
		outboxes:  make([][][]Message, c.n),
		inboxes:   make([][]Message, c.n),
		work:      append([]float64(nil), rep.Work...),
		msgCount:  append([]int64(nil), rep.MsgCount...),
		msgBytes:  append([]int64(nil), rep.MsgBytes...),
		critWork:  rep.CriticalWork,
		critBytes: rep.CriticalBytes,
	}
	if c.recordCosts {
		ck.comp = make([][]float64, c.n)
		ck.comm = make([][]float64, c.n)
	}
	for i, w := range c.workers {
		if w.State != nil {
			sn, ok := w.State.(Snapshotter)
			if !ok {
				return nil, fmt.Errorf("engine: worker %d state %T does not implement Snapshotter", i, w.State)
			}
			s := sn.Snapshot()
			if _, ok := s.(Snapshotter); s != nil && !ok {
				return nil, fmt.Errorf("engine: worker %d snapshot %T does not implement Snapshotter", i, s)
			}
			ck.states[i] = s
		}
		outb := make([][]Message, c.n)
		for d, msgs := range w.outbox {
			outb[d] = appendClones(nil, msgs)
		}
		ck.outboxes[i] = outb
		ck.inboxes[i] = appendClones(nil, c.inboxes[i])
		if c.recordCosts {
			ck.comp[i] = append([]float64(nil), w.vertexComp...)
			ck.comm[i] = append([]float64(nil), w.vertexComm...)
		}
	}
	return ck, nil
}

// restore rolls every worker, the in-flight inboxes and the report
// accumulators back to the checkpoint barrier. Stored states are
// re-cloned (not handed out) so the checkpoint survives any number of
// subsequent rollbacks untouched. Outboxes and inboxes are refilled in
// place with clones whose payloads live in fresh memory, which also
// detaches replay from the workers' SendVal arenas — replay refills
// the arenas from the checkpointed superstep onward.
func (c *Cluster) restore(ck *checkpoint, rep *Report) {
	for i, w := range c.workers {
		if ck.states[i] == nil {
			w.State = nil
		} else {
			w.State = ck.states[i].(Snapshotter).Snapshot()
		}
		for d, msgs := range ck.outboxes[i] {
			w.outbox[d] = appendClones(w.outbox[d][:0], msgs)
		}
		c.inboxes[i] = appendClones(c.inboxes[i][:0], ck.inboxes[i])
		w.arenas[0] = w.arenas[0][:0]
		w.arenas[1] = w.arenas[1][:0]
		if c.recordCosts {
			copy(w.vertexComp, ck.comp[i])
			copy(w.vertexComm, ck.comm[i])
		}
	}
	copy(rep.Work, ck.work)
	copy(rep.MsgCount, ck.msgCount)
	copy(rep.MsgBytes, ck.msgBytes)
	rep.CriticalWork = ck.critWork
	rep.CriticalBytes = ck.critBytes
	rep.Supersteps = ck.next
}

// corruptBatch applies a Drop/Duplicate fault to a copy of the
// delivery batch. The engine detects the corruption by count mismatch
// against the assembled ground truth and redelivers — simulating the
// acknowledge-and-retransmit layer of a real BSP message bus, which
// is why drop/dup faults never perturb the deterministic Report.
func corruptBatch(in []Message, e fault.Event) []Message {
	if len(in) == 0 {
		return in
	}
	k := e.Index % len(in)
	switch e.Kind {
	case fault.Drop:
		out := make([]Message, 0, len(in)-1)
		out = append(out, in[:k]...)
		return append(out, in[k+1:]...)
	case fault.Duplicate:
		out := make([]Message, 0, len(in)+1)
		out = append(out, in[:k+1]...)
		out = append(out, in[k])
		return append(out, in[k+1:]...)
	}
	return in
}
