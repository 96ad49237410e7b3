// Package engine is the shared-nothing BSP execution substrate this
// reproduction substitutes for the paper's 32-machine GRAPE cluster
// (see DESIGN.md). A Cluster runs one worker goroutine per fragment
// under superstep barriers; workers exchange typed messages through a
// bus that counts messages and bytes. The engine reports both wall
// time and a deterministic simulated parallel cost: per superstep the
// critical path is the maximum per-worker work plus the maximum
// per-worker communication volume, mirroring how a synchronous BSP
// round costs max(compute) + max(comm).
//
// The engine also records per-vertex computation and communication
// work, which is exactly the "running log" Section 4 harvests training
// samples [X(v), t(v)] from.
//
// The hot path is flat (see DESIGN.md "Data layout"): the cluster
// compiles its partition at construction, each worker derives a scan
// plan from it on first use (plan.go: adjacency by local id, arc
// responsibility as one cached bit per list position), per-vertex cost
// charging is dense, and the message plane reuses its outbox/inbox
// buffers and scalar payload arenas across supersteps and Runs — the
// steady-state superstep loop performs no heap allocations (locked in
// by TestSteadyStateZeroAllocs).
package engine

import (
	"context"
	"fmt"
	"time"

	"adp/internal/graph"
	"adp/internal/partition"
	"adp/internal/pool"
)

// Message is one unit of communication between workers. V names the
// subject vertex; Data carries numeric payload and Adj carries
// adjacency payload (for the neighbourhood-exchange algorithms).
type Message struct {
	V    graph.VertexID
	Kind uint8
	Data []float64
	Adj  []graph.VertexID
}

// Size estimates the wire size of the message in bytes.
func (m Message) Size() int64 {
	return 8 + 8*int64(len(m.Data)) + 4*int64(len(m.Adj))
}

// StepFunc advances one worker by one superstep. inbox holds the
// messages addressed to this worker during the previous superstep
// (grouped by sending worker in ascending order). Returning true
// votes to halt; the run stops when every worker votes to halt in the
// same superstep and no messages are in flight.
//
// The inbox slice (and the payload of SendVal-sent messages) is only
// valid for the duration of the call: the engine reuses the backing
// buffers on the following superstep. Copy values out; do not retain
// the slice.
type StepFunc func(w *WorkerCtx, superstep int, inbox []Message) (halt bool)

// Report aggregates the execution statistics of one Run.
type Report struct {
	Supersteps int
	WallTime   time.Duration
	// Work[i] is worker i's accumulated work units over the run.
	Work []float64
	// MsgCount[i] / MsgBytes[i] count messages/bytes sent by worker i.
	MsgCount []int64
	MsgBytes []int64
	// CriticalWork is Σ over supersteps of max-per-worker work — the
	// BSP compute critical path.
	CriticalWork float64
	// CriticalBytes is Σ over supersteps of max-per-worker sent
	// bytes — the BSP communication critical path.
	CriticalBytes float64
}

// DefaultBytesWeight converts a communicated byte into work units for
// SimCost: chosen so that shipping one adjacency entry costs a few
// elementary compute operations, like a 10Gbps NIC against a 2GHz
// core.
const DefaultBytesWeight = 0.25

// SimCost is the deterministic simulated parallel runtime:
// compute critical path + weighted communication critical path. The
// Fig. 9 benches report this quantity (in work units).
func (r *Report) SimCost(bytesWeight float64) float64 {
	return r.CriticalWork + bytesWeight*r.CriticalBytes
}

// String summarises the report on one line.
func (r *Report) String() string {
	return fmt.Sprintf("report{steps=%d critWork=%.4g critBytes=%.4g wall=%v}",
		r.Supersteps, r.CriticalWork, r.CriticalBytes, r.WallTime.Round(time.Millisecond))
}

// TotalMsgBytes sums sent bytes over workers.
func (r *Report) TotalMsgBytes() int64 {
	var s int64
	for _, b := range r.MsgBytes {
		s += b
	}
	return s
}

// Cluster executes BSP programs over a hybrid partition.
type Cluster struct {
	p       *partition.Partition
	n       int
	workers []*WorkerCtx
	// foreignArc[i] is a bitset over fragment i's compiled arc slots:
	// bit k set means a lower fragment also stores arc slot k, so this
	// worker is not responsible for it.
	foreignArc [][]uint64
	// computeFrag[v] is the fragment of v's e-cut node, or -1 when v
	// is v-cut (computation split across copies).
	computeFrag []int32

	// inboxes and halts are the barrier's per-worker buffers, kept
	// here so their capacity survives Runs: a Run truncates the inboxes
	// at its start and zeroes their slots at its end.
	inboxes [][]Message
	halts   []bool

	recordCosts bool
	// pl executes superstep fan-outs and message routing; defaults to
	// the process-wide shared pool.
	pl *pool.Pool
	// opts carries the default run context.
	opts Options
}

// NewCluster prepares a cluster over p, compiling the partition into
// its flat execution form first. The partition must not be mutated
// while the cluster is in use (a mutation drops the compiled form and
// the responsibility index would go stale).
func NewCluster(p *partition.Partition) *Cluster {
	n := p.NumFragments()
	c := &Cluster{p: p, n: n, pl: pool.Default(),
		inboxes: make([][]Message, n), halts: make([]bool, n)}
	p.Compile()
	c.buildResponsibility()
	c.workers = make([]*WorkerCtx, c.n)
	for i := 0; i < c.n; i++ {
		c.workers[i] = &WorkerCtx{cluster: c, id: i, frag: p.Fragment(i), outbox: make([][]Message, c.n)}
	}
	return c
}

// EnableCostRecording makes workers keep per-vertex compute and
// communication work, harvested later via HarvestSamples. The dense
// recording arrays are allocated once and survive every reset —
// consecutive Runs each record afresh and can each be harvested
// (locked in by TestCostRecordingSurvivesConsecutiveRuns).
func (c *Cluster) EnableCostRecording() {
	c.recordCosts = true
	nv := c.p.Graph().NumVertices()
	for _, w := range c.workers {
		if w.vertexComp == nil {
			w.vertexComp = make([]float64, nv)
			w.vertexComm = make([]float64, nv)
		}
	}
}

// UsePool makes the cluster schedule supersteps and message routing on
// pl instead of the shared Default pool; pool.Serial() yields the
// deterministic single-threaded mode. Returns c for chaining. Reports
// are bitwise identical for any pool size by construction (every
// superstep writes per-worker slots only); the determinism tests lock
// this in for worker counts 1, 4 and GOMAXPROCS.
func (c *Cluster) UsePool(pl *pool.Pool) *Cluster {
	if pl != nil {
		c.pl = pl
	}
	return c
}

// Partition returns the partition the cluster executes over.
func (c *Cluster) Partition() *partition.Partition { return c.p }

// Worker returns worker i, e.g. to read algorithm state after a run.
func (c *Cluster) Worker(i int) *WorkerCtx { return c.workers[i] }

// buildResponsibility computes, for every replicated arc, which
// fragments are NOT responsible for it (every arc's responsible owner
// is its lowest-id holder), plus each vertex's compute fragment.
// The result is one bitset per fragment, indexed by compiled arc slot.
//
// A fragment storing an arc holds a copy of its source, so only a
// replicated source's arcs can be stored twice, and keys sort by source,
// so each copy's out-arcs are one run of its fragment's key array.
// Walking a border vertex's runs in ascending fragment order, stamping
// each target with the source, finds every arc a lower fragment already
// stores: one pass over those runs, no arc hashed.
func (c *Cluster) buildResponsibility() {
	packed := make([]partition.Packed, c.n)
	c.foreignArc = make([][]uint64, c.n)
	for i := range packed {
		packed[i] = c.p.Fragment(i).Packed()
		c.foreignArc[i] = make([]uint64, (len(packed[i].Arcs)+63)/64)
	}
	nv := c.p.Graph().NumVertices()
	c.computeFrag = make([]int32, nv)
	// seen[t] == v+1: a fragment visited earlier stores the arc (v,t).
	seen := make([]uint32, nv)
	for vi := 0; vi < nv; vi++ {
		v := graph.VertexID(vi)
		c.computeFrag[v] = int32(c.p.CompleteFragment(v))
		copies := c.p.Copies(v)
		if len(copies) < 2 {
			continue
		}
		for _, i := range copies {
			pk, foreign := &packed[i], c.foreignArc[i]
			l := pk.Local[v]
			first := int(pk.ArcOff[l])
			for k, key := range pk.Arcs[first:pk.ArcOff[l+1]] {
				if t := uint32(key); seen[t] == uint32(v)+1 {
					slot := first + k
					foreign[slot>>6] |= 1 << (uint(slot) & 63)
				} else {
					seen[t] = uint32(v) + 1
				}
			}
		}
	}
}

// Run executes the program: init once per worker, then supersteps of
// step until every worker halts with no messages in flight, or the
// superstep budget maxSupersteps runs out. The run context is
// Options.Context (Background when unset). Every failure — including
// non-convergence — returns a *FailedRunError carrying the partial
// Report.
func (c *Cluster) Run(init func(w *WorkerCtx), step StepFunc, maxSupersteps int) (*Report, error) {
	ctx := c.opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	return c.RunCtx(ctx, init, step, maxSupersteps)
}

// RunCtx is Run under an explicit context: cancellation is observed
// at superstep barriers (and between chunk claims inside the compute
// fan-out), so a deadline or Ctrl-C returns within one barrier with
// the partial Report and zero leaked goroutines — the pool's helpers
// are long-lived and simply go idle. The typed-error contract holds on
// every exit path: a non-nil error is always a *FailedRunError whose
// Report is the returned (partial) report, covering exactly the
// completed supersteps — a run that converges in the same barrier a
// cancellation lands in still returns success. The cancellation-point
// sweep test locks both properties in for every observation point.
//
// A step that panics ends the run with a *FailedRunError whose Err is
// the *pool.Panic; the workers' state is whatever the panic left, so a
// caller that pools clusters should drop this one. A superstep is pure
// in-process compute, so the engine does not retry it: a rerun would
// panic the same way.
//
// The superstep loop is allocation-free in the steady state: the
// fan-out closures are hoisted out of the loop, outboxes and inboxes
// are truncated and refilled in place, and SendVal payloads come from
// the workers' double-buffered arenas. Per-superstep heap traffic is
// therefore zero once buffer capacities stabilise, and the buffers
// belong to the cluster, so the next Run finds them warm.
func (c *Cluster) RunCtx(ctx context.Context, init func(w *WorkerCtx), step StepFunc, maxSupersteps int) (*Report, error) {
	start := time.Now()
	rep := &Report{
		Work:     make([]float64, c.n),
		MsgCount: make([]int64, c.n),
		MsgBytes: make([]int64, c.n),
	}
	fail := func(reason string, err error) (*Report, error) {
		rep.WallTime = time.Since(start)
		return rep, &FailedRunError{Reason: reason, Report: rep, Err: err}
	}
	if err := ctx.Err(); err != nil {
		return fail("cancelled before start", err)
	}
	inboxes, halts := c.inboxes, c.halts
	for i, w := range c.workers {
		w.reset()
		inboxes[i] = inboxes[i][:0]
	}
	defer c.releaseMessages()
	if init != nil {
		c.parallel(func(w *WorkerCtx) { init(w) })
	}

	// Hoisted fan-out bodies: created once per Run, so the superstep
	// loop spends zero allocations on closures. All of them capture
	// the loop variable s by reference.
	var s int
	stepChunk := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			w := c.workers[i]
			// Flip the scalar arena: parity s&1 is written now, read
			// by receivers during s+1, and truncated here at s+2.
			if s >= 2 {
				w.arenas[s&1] = w.arenas[s&1][:0]
			}
			w.arenaCur = uint8(s & 1)
			w.stepWork = 0
			w.stepBytes = 0
			halts[i] = step(w, s, inboxes[i])
		}
	}
	deliverChunk := func(lo, hi int) {
		// Inbox dst is assembled from every sender's outbox in
		// ascending sender order into dst's capacity-retained buffer,
		// so delivery order is a pure function of the superstep's
		// sends regardless of pool size.
		for dst := lo; dst < hi; dst++ {
			in := inboxes[dst][:0]
			for _, w := range c.workers {
				if msgs := w.outbox[dst]; len(msgs) > 0 {
					in = append(in, msgs...)
				}
			}
			inboxes[dst] = in
		}
	}
	accountChunk := func(lo, hi int) {
		// Wire accounting and outbox truncation, one item per sender
		// (each writes only its own Report slots). Truncation keeps
		// the buffers' capacity for the next superstep's sends.
		for i := lo; i < hi; i++ {
			w := c.workers[i]
			for dst, msgs := range w.outbox {
				rep.MsgCount[i] += int64(len(msgs))
				for _, m := range msgs {
					rep.MsgBytes[i] += m.Size()
				}
				w.outbox[dst] = msgs[:0]
			}
		}
	}

	for s = 0; s < maxSupersteps; s++ {
		if err := ctx.Err(); err != nil {
			return fail("cancelled", err)
		}
		stepPanic, stepErr := c.tryRunChunksCtx(ctx, stepChunk)
		if stepPanic != nil {
			return fail("step panicked", stepPanic)
		}
		if stepErr != nil {
			// Cancelled mid-compute: the partial superstep is
			// discarded, the report covers completed supersteps only.
			return fail("cancelled", stepErr)
		}
		rep.Supersteps = s + 1
		// Collect the per-superstep critical path.
		var maxWork float64
		var maxBytes int64
		for i, w := range c.workers {
			if w.stepWork > maxWork {
				maxWork = w.stepWork
			}
			if w.stepBytes > maxBytes {
				maxBytes = w.stepBytes
			}
			rep.Work[i] += w.stepWork
		}
		rep.CriticalWork += maxWork
		rep.CriticalBytes += float64(maxBytes)
		c.pl.RunChunks(c.n, 1, deliverChunk)
		c.pl.RunChunks(c.n, 1, accountChunk)
		inflight := false
		for i := range inboxes {
			if len(inboxes[i]) > 0 {
				inflight = true
				break
			}
		}
		allHalt := true
		for _, h := range halts {
			if !h {
				allHalt = false
				break
			}
		}
		if allHalt && !inflight {
			rep.WallTime = time.Since(start)
			return rep, nil
		}
		// The harvest phase (critical-path collection, delivery,
		// accounting) runs cancellation-blind so a completed superstep
		// is always accounted in full; a cancellation landing during it
		// is observed here, inside the same barrier, so the typed-error
		// contract — every non-nil error is a *FailedRunError — does
		// not rest on the top-of-loop check alone.
		if err := ctx.Err(); err != nil {
			return fail("cancelled during harvest", err)
		}
	}
	return fail(fmt.Sprintf("no convergence within %d supersteps", maxSupersteps), nil)
}

// releaseMessages zeroes the retained inboxes and outboxes when a Run
// ends, up to their capacity (a slot past the current length can hold a
// message of an earlier superstep), so a warm cluster's buffers pin no
// Adj or Data payload of a finished run.
func (c *Cluster) releaseMessages() {
	for i, w := range c.workers {
		clear(c.inboxes[i][:cap(c.inboxes[i])])
		for _, msgs := range w.outbox {
			clear(msgs[:cap(msgs)])
		}
	}
}

// parallel runs fn once per worker on the cluster's pool. Each
// invocation only touches its own WorkerCtx (and slot-indexed result
// slices), so the superstep barrier is exactly the Run return.
func (c *Cluster) parallel(fn func(w *WorkerCtx)) {
	c.pl.RunChunks(c.n, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(c.workers[i])
		}
	})
}

// tryRunChunksCtx is a per-worker chunk fan-out with the failure modes
// surfaced instead of propagated: a pool worker panic is captured as
// *pool.Panic (RunCtx fails the run with it), and ctx
// cancellation stops further worker claims and is returned as the ctx
// error. Takes the prebuilt chunk body so the superstep loop does not
// allocate a closure per call.
func (c *Cluster) tryRunChunksCtx(ctx context.Context, fn func(lo, hi int)) (pv *pool.Panic, err error) {
	defer func() {
		if r := recover(); r != nil {
			p, ok := r.(*pool.Panic)
			if !ok {
				panic(r)
			}
			pv = p
		}
	}()
	err = c.pl.RunChunksCtx(ctx, c.n, 1, fn)
	return pv, err
}

// WorkerCtx is one BSP worker bound to a fragment. All methods must
// only be called from the worker's own goroutine during init/step.
type WorkerCtx struct {
	cluster *Cluster
	id      int
	frag    *partition.Fragment

	outbox    [][]Message
	stepWork  float64
	stepBytes int64

	// arenas are the double-buffered scalar payload buffers behind
	// SendVal: parity s&1 is written during superstep s, read by
	// receivers during s+1, and truncated at the start of s+2, so a
	// payload always outlives every reader without any allocation.
	arenas   [2][]float64
	arenaCur uint8

	// vertexComp / vertexComm are dense per-vertex cost accumulators
	// (indexed by global vertex id), nil unless EnableCostRecording.
	vertexComp []float64
	vertexComm []float64

	// State is the running algorithm's per-Run state; reset clears it.
	State any
	// Scratch is the running algorithm's reusable buffers: it survives
	// reset, so a later Run of the same algorithm finds them warm (one
	// that finds another's scratch replaces it).
	Scratch any
	// plan is built on first use (see plan.go).
	plan *Plan
}

// reset truncates the reusable buffers (keeping their capacity) and
// clears algorithm and recording state for a fresh Run.
func (w *WorkerCtx) reset() {
	for i := range w.outbox {
		w.outbox[i] = w.outbox[i][:0]
	}
	w.arenas[0] = w.arenas[0][:0]
	w.arenas[1] = w.arenas[1][:0]
	w.arenaCur = 0
	w.State = nil
	for i := range w.vertexComp {
		w.vertexComp[i] = 0
	}
	for i := range w.vertexComm {
		w.vertexComm[i] = 0
	}
}

// ID returns the worker (= fragment) index.
func (w *WorkerCtx) ID() int { return w.id }

// NumWorkers returns the cluster size n.
func (w *WorkerCtx) NumWorkers() int { return w.cluster.n }

// Fragment returns the fragment this worker hosts.
func (w *WorkerCtx) Fragment() *partition.Fragment { return w.frag }

// Partition returns the partition (read-only: structural queries such
// as Master/Copies/Status are allowed; mutation is not).
func (w *WorkerCtx) Partition() *partition.Partition { return w.cluster.p }

// foreignBit reports whether the arc slot is owned by a lower
// fragment: two array loads against the responsibility bitset.
func (w *WorkerCtx) foreignBit(slot int) bool {
	return w.cluster.foreignArc[w.id][slot>>6]&(1<<(uint(slot)&63)) != 0
}

// Responsible reports whether this worker owns the arc (u,v): it holds
// the arc and no lower-id fragment does. Each arc of G is responsible
// at exactly one worker, which is how replicated arcs are processed
// exactly once.
func (w *WorkerCtx) Responsible(u, v graph.VertexID) bool {
	slot, ok := w.frag.ArcIndex(u, v)
	return ok && !w.foreignBit(slot)
}

// responsibleStored is the placement rule itself, for an arc this
// worker is known to store — the one definition the scan plan is
// filled by and the tests' ResponsibleFor answers from.
func (w *WorkerCtx) responsibleStored(subject, u, v graph.VertexID) bool {
	if cf := w.cluster.computeFrag[subject]; cf >= 0 {
		return int(cf) == w.id
	}
	slot, _ := w.frag.ArcIndex(u, v)
	return !w.foreignBit(slot)
}

// Send enqueues a message for worker dst, delivered next superstep.
// Messages to self are free of charge on the wire but still counted.
func (w *WorkerCtx) Send(dst int, m Message) {
	w.outbox[dst] = append(w.outbox[dst], m)
	if dst != w.id {
		w.stepBytes += m.Size()
	}
}

// SendVal enqueues a single-value message without heap allocation: the
// payload slot is carved from the worker's double-buffered arena, so
// wire accounting is identical to Send with a one-element Data slice
// while the steady-state superstep loop stays allocation-free. The
// payload is valid while the receiver's step runs, like the inbox.
func (w *WorkerCtx) SendVal(dst int, v graph.VertexID, kind uint8, val float64) {
	a := append(w.arenas[w.arenaCur], val)
	w.arenas[w.arenaCur] = a
	w.Send(dst, Message{V: v, Kind: kind, Data: a[len(a)-1 : len(a) : len(a)]})
}

// AppendMirrors appends the fragments holding copies of v other than
// this worker to dst and returns the extended slice. Pass a
// state-held scratch (buf[:0]) to make the call allocation-free.
func (w *WorkerCtx) AppendMirrors(dst []int, v graph.VertexID) []int {
	for _, c := range w.cluster.p.Copies(v) {
		if int(c) != w.id {
			dst = append(dst, int(c))
		}
	}
	return dst
}

// AddWork charges units of computation to this worker in the current
// superstep.
func (w *WorkerCtx) AddWork(units float64) { w.stepWork += units }

// ChargeVertex charges compute work to the worker and attributes it to
// vertex v for the training log.
func (w *WorkerCtx) ChargeVertex(v graph.VertexID, units float64) {
	w.stepWork += units
	if w.vertexComp != nil {
		w.vertexComp[v] += units
	}
}

// ChargeVertexComm attributes communication work to vertex v for the
// training log (wire accounting happens in Send).
func (w *WorkerCtx) ChargeVertexComm(v graph.VertexID, units float64) {
	if w.vertexComm != nil {
		w.vertexComm[v] += units
	}
}
