package engine

import (
	"unsafe"

	"adp/internal/graph"
)

// ResponsibleFor reports whether this worker processes the arc (u,v)
// on behalf of subject's per-vertex aggregation. Computation follows
// the paper's placement rule: an e-cut vertex computes at its e-cut
// node (which holds every incident arc, replicas included), while a
// v-cut vertex's work is split across its copies with replicated arcs
// deduplicated to the lowest holder. Exactly one worker is responsible
// per (subject, arc) pair, and migrating or splitting the subject
// moves its work accordingly.
//
// A per-arc probe (a binary search): algorithms read the scan plan,
// which caches the answer for every list position.
func (w *WorkerCtx) ResponsibleFor(subject, u, v graph.VertexID) bool {
	return w.frag.HasArc(u, v) && w.responsibleStored(subject, u, v)
}

// MessageBufferBytes sums the capacity bytes of the message buffers c
// keeps between Runs: both lanes of every worker's inbox and outboxes.
func MessageBufferBytes(c *Cluster) int64 {
	lanes := func(in Inbox) int64 {
		return int64(cap(in.Vals))*int64(unsafe.Sizeof(Val{})) + int64(cap(in.Msgs))*int64(unsafe.Sizeof(Message{}))
	}
	var total int64
	for i, w := range c.workers {
		total += lanes(c.inboxes[i])
		for _, out := range w.outbox {
			total += lanes(out)
		}
	}
	return total
}
