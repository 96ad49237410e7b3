package serve

import (
	"errors"
	"fmt"
	"time"

	"adp/internal/composite"
	"adp/internal/costmodel"
	"adp/internal/store"
)

// The maintenance-facing surface of the server. The background
// re-refinement loop (internal/maintain) is a *client* of the serving
// plane: it cuts a base composite from the live epoch, refines a copy
// off the serving path, and asks the apply loop — the single writer —
// to promote the result. Everything that must be serialized with the
// update stream (delta capture, replay, the durable swap, the epoch
// publish) happens inside the apply loop, so readers and writers never
// see a half-promoted state.

// maxCapturedMutations bounds the maintenance delta buffer. A cycle
// whose capture overflows cannot be promoted or rolled back safely
// (the candidate could not be caught up), so the swap is refused and
// the loop starts over from a fresh base.
const maxCapturedMutations = 1 << 14

// capturedWave is the mutation delta of one published epoch, tagged
// with the epoch sequence it became visible in.
type capturedWave struct {
	seq  uint64
	muts []store.Mutation
}

// LatencySample is one served /run observation, tagged with the epoch
// that served it — the regression watchdog splits samples at the
// promotion boundary.
type LatencySample struct {
	Epoch uint64
	Wall  time.Duration
}

// MaintStatus is the maintenance plane's /metrics block. The serve
// package defines it (and serves it) so the HTTP face has no import of
// internal/maintain; the loop registers a provider via
// SetMaintStatusFunc.
type MaintStatus struct {
	Enabled            bool    `json:"enabled"`
	State              string  `json:"state"`
	Cycles             int64   `json:"cycles"`
	Promoted           int64   `json:"promoted"`
	RolledBack         int64   `json:"rolled_back"`
	ValidationFailures int64   `json:"validation_failures"`
	RefineFailures     int64   `json:"refine_failures"`
	RefinePanics       int64   `json:"refine_panics"`
	RejectedStorage    int64   `json:"rejected_storage"`
	SwapFailures       int64   `json:"swap_failures"`
	LastDrift          float64 `json:"last_drift"`
	Threshold          float64 `json:"drift_threshold"`
	LastError          string  `json:"last_error,omitempty"`
}

// SetMaintStatusFunc registers the provider behind the /metrics
// "maintenance" block. Pass nil to unregister.
func (s *Server) SetMaintStatusFunc(f func() MaintStatus) {
	s.maintMu.Lock()
	s.maintStatus = f
	s.maintMu.Unlock()
}

func (s *Server) maintStatusSnapshot() *MaintStatus {
	s.maintMu.Lock()
	f := s.maintStatus
	s.maintMu.Unlock()
	if f == nil {
		return nil
	}
	ms := f()
	return &ms
}

// ErrMaintenanceActive rejects overlapping maintenance cycles.
var ErrMaintenanceActive = errors.New("serve: maintenance cycle already active")

// BeginMaintenance arms delta capture and cuts the cycle's base: a
// private clone of the live epoch's composite plus that epoch's
// sequence number. Every update wave published from now on is recorded
// so a candidate refined from the base can be caught up at promotion
// time. Exactly one cycle may be active; EndMaintenance releases it.
func (s *Server) BeginMaintenance() (*composite.Composite, uint64, error) {
	if s.draining.Load() {
		return nil, 0, fmt.Errorf("serve: draining; maintenance refused")
	}
	s.capMu.Lock()
	if s.capOn {
		s.capMu.Unlock()
		return nil, 0, ErrMaintenanceActive
	}
	// Arm BEFORE reading the current epoch: a publish racing this call
	// is then captured with seq <= baseSeq and filtered at replay — a
	// publish after the read is captured and replayed. No gap.
	s.capOn = true
	s.capWaves = nil
	s.capCount = 0
	s.capOverflow = false
	s.capMu.Unlock()
	e := s.cur.Load()
	// The base is cut through the same COW path as epoch publishes: it
	// shares the epoch's immutable compiled fragments, and the refiner
	// (via exported mutators) copies what it touches into its own
	// overlay before writing, so the live epoch is never perturbed.
	return e.comp.CloneCOW(), e.seq, nil
}

// EndMaintenance disarms delta capture and drops the buffer.
func (s *Server) EndMaintenance() {
	s.capMu.Lock()
	s.capOn = false
	s.capWaves = nil
	s.capCount = 0
	s.capOverflow = false
	s.capMu.Unlock()
}

// captureWave records one published wave's mutations (apply loop only).
func (s *Server) captureWave(seq uint64, wave []*updateBatch) {
	s.capMu.Lock()
	defer s.capMu.Unlock()
	if !s.capOn || s.capOverflow {
		return
	}
	n := 0
	for _, b := range wave {
		n += len(b.muts)
	}
	if s.capCount+n > maxCapturedMutations {
		s.capOverflow = true
		return
	}
	var muts []store.Mutation
	for _, b := range wave {
		muts = append(muts, b.muts...)
	}
	s.capWaves = append(s.capWaves, capturedWave{seq: seq, muts: muts})
	s.capCount += n
}

// captureDelta folds every captured wave newer than baseSeq into one
// replayable mutation list (apply loop only).
func (s *Server) captureDelta(baseSeq uint64) (muts []store.Mutation, overflow bool) {
	s.capMu.Lock()
	defer s.capMu.Unlock()
	if s.capOverflow {
		return nil, true
	}
	for _, w := range s.capWaves {
		if w.seq > baseSeq {
			muts = append(muts, w.muts...)
		}
	}
	return muts, false
}

// replayOnto applies a captured delta to a candidate composite through
// the same fold every unlogged composite update uses. Inserts without
// an explicit destination vector are re-routed by locality against the
// CANDIDATE — the refined placement routes its own arcs; the edge set
// still ends up identical to the store's. A delete that finds no edge
// means the candidate did not start from the base's edge set.
func replayOnto(c *composite.Composite, muts []store.Mutation) error {
	deletes := 0
	for _, m := range muts {
		if m.Kind == store.MutDelete {
			deletes++
		}
	}
	_, found, err := store.Fold(c, muts)
	if err == nil && found != deletes {
		err = fmt.Errorf("%d of %d replayed deletes found no edge", deletes-found, deletes)
	}
	return err
}

// swapRequest asks the apply loop to promote (or roll back to) cand.
type swapRequest struct {
	cand     *composite.Composite
	baseSeq  uint64
	rollback bool
	reply    chan swapResult
}

type swapResult struct {
	epoch uint64
	err   error
}

// SwapEpoch hands a candidate composite to the apply loop for a
// guarded, durable promotion: the captured delta since baseSeq is
// replayed onto it, its coherence re-validated, the store's
// composite durably replaced (snapshot + fresh WAL segment), and a
// fresh epoch published. The candidate must derive from the base
// returned by BeginMaintenance (same edge set as epoch baseSeq); the
// server owns it after a successful swap. Returns the new epoch
// sequence. Any error leaves readers on the previous epoch.
func (s *Server) SwapEpoch(cand *composite.Composite, baseSeq uint64, rollback bool) (uint64, error) {
	sr := &swapRequest{cand: cand, baseSeq: baseSeq, rollback: rollback, reply: make(chan swapResult, 1)}
	select {
	case s.swaps <- sr:
	case <-s.baseCtx.Done():
		return 0, fmt.Errorf("serve: draining; swap aborted")
	}
	// The apply loop always replies once it has accepted the request
	// (the reply channel is buffered), including during a drain.
	res := <-sr.reply
	return res.epoch, res.err
}

// applySwap performs the promotion inside the apply loop, serialized
// with update waves. Failure classes: stale/overflowed capture and
// replay or validation failures reject the candidate without touching
// the store; a durable-swap disk failure poisons the write path like
// any other write error — in every case readers stay on the last good
// epoch.
func (s *Server) applySwap(sr *swapRequest) {
	res := swapResult{}
	defer func() { sr.reply <- res }()
	if s.draining.Load() {
		res.err = fmt.Errorf("serve: draining; swap refused")
		return
	}
	if s.storeFailed.Load() {
		res.err = fmt.Errorf("serve: store write path failed; swap refused")
		return
	}
	delta, overflow := s.captureDelta(sr.baseSeq)
	if overflow {
		res.err = fmt.Errorf("serve: maintenance capture overflowed (> %d mutations); candidate too stale", maxCapturedMutations)
		return
	}
	if err := replayOnto(sr.cand, delta); err != nil {
		res.err = fmt.Errorf("serve: catching candidate up: %w", err)
		return
	}
	if err := sr.cand.ValidateIndex(); err != nil {
		res.err = fmt.Errorf("serve: candidate incoherent after catch-up: %w", err)
		return
	}
	res.err = s.st.ReplaceComposite(sr.cand)
	ne := s.finish(res.err, res.err == nil)
	if ne == nil {
		return
	}
	if sr.rollback {
		s.maintRollbacks.Add(1)
	} else {
		s.maintPromotions.Add(1)
	}
	kind := "promoted"
	if sr.rollback {
		kind = "rolled back to"
	}
	s.logf("serve: %s epoch %d (lsn=%d, %d delta mutations replayed)", kind, ne.seq, ne.lsn, len(delta))
	res.epoch = ne.seq
}

// CurrentComposite returns the live epoch's immutable composite and
// sequence — the drift detector evaluates reference costs against it.
// Callers must treat it as read-only.
func (s *Server) CurrentComposite() (*composite.Composite, uint64) {
	e := s.cur.Load()
	return e.comp, e.seq
}

// recordObserved folds one successful /run into the observation
// window: the algorithm mix count and the engine's harvested
// per-worker (== per-fragment) work vector, plus a latency sample.
func (s *Server) recordObserved(algoIdx int, work []float64, epoch uint64, wall time.Duration) {
	s.obsMu.Lock()
	if s.obsCounts == nil {
		n := len(costmodel.Algos())
		s.obsCounts = make([]int64, n)
		s.obsWork = make([][]float64, n)
	}
	if algoIdx < len(s.obsCounts) {
		s.obsCounts[algoIdx]++
		row := s.obsWork[algoIdx]
		if len(row) < len(work) {
			nr := make([]float64, len(work))
			copy(nr, row)
			row = nr
			s.obsWork[algoIdx] = row
		}
		for i, v := range work {
			row[i] += v
		}
	}
	if len(s.latSamples) < latWindow {
		s.latSamples = append(s.latSamples, LatencySample{Epoch: epoch, Wall: wall})
	} else {
		s.latSamples[s.latNext] = LatencySample{Epoch: epoch, Wall: wall}
		s.latNext = (s.latNext + 1) % latWindow
	}
	s.obsMu.Unlock()
}

// latWindow bounds the retained latency ring.
const latWindow = 2048

// ObservedWindow snapshots and RESETS the per-algorithm request counts
// and accumulated per-fragment work since the previous call — the
// drift detector consumes exactly one window per tick.
func (s *Server) ObservedWindow() (counts []int64, work [][]float64) {
	s.obsMu.Lock()
	defer s.obsMu.Unlock()
	counts = append([]int64(nil), s.obsCounts...)
	work = make([][]float64, len(s.obsWork))
	for i, row := range s.obsWork {
		work[i] = append([]float64(nil), row...)
	}
	s.obsCounts = nil
	s.obsWork = nil
	return counts, work
}

// LatencySamples returns a copy of the retained /run latency ring
// (unordered; samples carry the serving epoch).
func (s *Server) LatencySamples() []LatencySample {
	s.obsMu.Lock()
	defer s.obsMu.Unlock()
	return append([]LatencySample(nil), s.latSamples...)
}
