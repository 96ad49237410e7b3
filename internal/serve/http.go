package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"adp/internal/algorithms"
	"adp/internal/costmodel"
	"adp/internal/engine"
	"adp/internal/graph"
	"adp/internal/store"
)

// Handler returns the server's HTTP face:
//
//	POST /run          run an algorithm over the pinned epoch
//	GET  /vertex/{id}  point/neighborhood lookup against one epoch
//	GET  /metrics      partition, cost-model and server statistics
//	POST /updates      durable mutation batch (update-stream grammar)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /run", s.handleRun)
	mux.HandleFunc("GET /vertex/{id}", s.handleVertex)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /updates", s.handleUpdates)
	return mux
}

// errorBody is the uniform error envelope: class is the machine-
// matchable failure taxonomy (bad_request, overloaded, draining,
// timeout, cancelled, failed_run, store_failed, stale, internal).
// stale errors carry the bound the reader asked for and the watermark
// the serving epoch actually covers, so a client can retry once the
// write it waits for is published.
type errorBody struct {
	Error      string `json:"error"`
	Class      string `json:"class"`
	Reason     string `json:"reason,omitempty"`
	Supersteps int    `json:"supersteps,omitempty"`
	MinLSN     uint64 `json:"min_lsn,omitempty"`
	AppliedLSN uint64 `json:"applied_lsn,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, class, msg string) {
	writeJSON(w, status, errorBody{Error: msg, Class: class})
}

func parseAlgo(s string) (costmodel.Algo, bool) {
	for _, a := range costmodel.Algos() {
		if strings.EqualFold(a.String(), s) {
			return a, true
		}
	}
	return 0, false
}

// runRequest is the POST /run body.
type runRequest struct {
	Algo string `json:"algo"`
	// TimeoutMS overrides the server's default per-request deadline.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Algorithm knobs (same meaning as algorithms.Options).
	Theta      int    `json:"theta,omitempty"`      // CN in-degree filter
	Source     uint32 `json:"source,omitempty"`     // SSSP source
	Iterations int    `json:"iterations,omitempty"` // PR iterations
	// MinLSN, when > 0, is the read-your-writes floor: the run is
	// refused with the stale class (412) unless the serving epoch covers
	// at least this committed LSN.
	MinLSN uint64 `json:"min_lsn,omitempty"`
}

// runResponse carries the Outcome plus the deterministic Report
// fields. Every float64 survives the JSON round trip bitwise (Go
// emits the shortest representation that parses back exactly), so the
// isolation tests compare these against offline runs directly.
type runResponse struct {
	Epoch         uint64  `json:"epoch"`
	Algo          string  `json:"algo"`
	Value         float64 `json:"value"`
	Checksum      uint64  `json:"checksum"`
	Supersteps    int     `json:"supersteps"`
	CriticalWork  float64 `json:"critical_work"`
	CriticalBytes float64 `json:"critical_bytes"`
	MsgBytes      int64   `json:"msg_bytes"`
	WallMS        float64 `json:"wall_ms"`
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeErr(w, http.StatusServiceUnavailable, "draining", "server is draining")
		return
	}
	var req runRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", "decoding body: "+err.Error())
		return
	}
	algo, ok := parseAlgo(req.Algo)
	if !ok {
		writeErr(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("unknown algorithm %q", req.Algo))
		return
	}
	// Admission: bounded in-flight run work, reject-don't-queue beyond
	// the session-pool wait.
	select {
	case s.admit <- struct{}{}:
	default:
		s.rejected.Add(1)
		writeErr(w, http.StatusTooManyRequests, "overloaded", "run admission limit reached")
		return
	}
	defer func() { <-s.admit }()
	s.served.Add(1)

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	ctx, cancelTO := context.WithTimeout(r.Context(), timeout)
	defer cancelTO()

	ep := s.pin()
	defer ep.unpin()
	if !s.checkFresh(w, ep, req.MinLSN) {
		return
	}
	var out algorithms.Outcome
	err := ep.pools[algoIndex(algo)].run(ctx, func(sess *engine.Cluster) (err error) {
		sess.Configure(engine.Options{Context: ctx})
		out, err = algorithms.Run(sess, algo, algorithms.Options{
			CNTheta:      req.Theta,
			SSSPSource:   graph.VertexID(req.Source),
			PRIterations: req.Iterations,
		})
		return err
	})
	if err != nil {
		s.runFailures.Add(1)
		s.writeRunErr(w, err, out.Report)
		return
	}
	// Feed the drift detector: the observed algorithm mix plus the
	// engine's harvested per-fragment work, tagged with the epoch.
	s.recordObserved(algoIndex(algo), out.Report.Work, ep.seq, out.Report.WallTime)
	writeJSON(w, http.StatusOK, runResponse{
		Epoch:         ep.seq,
		Algo:          algo.String(),
		Value:         out.Value,
		Checksum:      out.Checksum,
		Supersteps:    out.Report.Supersteps,
		CriticalWork:  out.Report.CriticalWork,
		CriticalBytes: out.Report.CriticalBytes,
		MsgBytes:      out.Report.TotalMsgBytes(),
		WallMS:        float64(out.Report.WallTime) / float64(time.Millisecond),
	})
}

// checkFresh enforces a reader's min_lsn floor against the pinned
// epoch: the epoch's lsn is the committed watermark it was cut at, so
// ep.lsn >= minLSN means every commit up to minLSN is visible. A
// too-stale epoch writes the typed stale error (412) and reports false;
// the client retries once a later epoch is published.
func (s *Server) checkFresh(w http.ResponseWriter, ep *epoch, minLSN uint64) bool {
	if minLSN == 0 || ep.lsn >= minLSN {
		return true
	}
	writeJSON(w, http.StatusPreconditionFailed, errorBody{
		Error:      fmt.Sprintf("serve: epoch covers lsn %d, behind requested min_lsn %d", ep.lsn, minLSN),
		Class:      "stale",
		MinLSN:     minLSN,
		AppliedLSN: ep.lsn,
	})
	return false
}

// writeRunErr maps the engine's typed failure onto a status code:
// deadline → 504, cancellation (client gone or drain) → 503, a step
// panic → 500, any other *FailedRunError (non-convergence) → 422,
// everything else → 500.
func (s *Server) writeRunErr(w http.ResponseWriter, err error, rep *engine.Report) {
	body := errorBody{Error: err.Error()}
	var fre *engine.FailedRunError
	if errors.As(err, &fre) {
		body.Reason = fre.Reason
		if fre.Report != nil {
			body.Supersteps = fre.Report.Supersteps
		}
	} else if rep != nil {
		body.Supersteps = rep.Supersteps
	}
	status := http.StatusInternalServerError
	body.Class = "internal"
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		status, body.Class = http.StatusGatewayTimeout, "timeout"
	case errors.Is(err, context.Canceled):
		status, body.Class = http.StatusServiceUnavailable, "cancelled"
	case stepPanicked(err):
		// A bug, not a property of the request: 500 "internal".
	case fre != nil:
		status, body.Class = http.StatusUnprocessableEntity, "failed_run"
	}
	writeJSON(w, status, body)
}

// vertexPlacement is one bundled partition's view of a vertex.
type vertexPlacement struct {
	Copies    []int    `json:"copies"`
	Master    int      `json:"master"`
	Status    []string `json:"status"` // per copy, same order as copies
	OutDegree int      `json:"out_degree"`
	InDegree  int      `json:"in_degree"`
	Out       []uint32 `json:"out"`
}

type vertexResponse struct {
	Epoch uint64 `json:"epoch"`
	// EpochLSN is the committed watermark the serving epoch covers: every
	// write acked at or below it is visible in this read.
	EpochLSN   uint64            `json:"epoch_lsn"`
	Vertex     uint32            `json:"vertex"`
	Partitions []vertexPlacement `json:"partitions"`
}

func (s *Server) handleVertex(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 32)
	if err != nil || int64(id) >= int64(s.g.NumVertices()) {
		writeErr(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("vertex %q out of range [0,%d)", r.PathValue("id"), s.g.NumVertices()))
		return
	}
	var minLSN uint64
	if q := r.URL.Query().Get("min_lsn"); q != "" {
		minLSN, err = strconv.ParseUint(q, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad_request", "min_lsn: "+err.Error())
			return
		}
	}
	v := graph.VertexID(id)
	ep := s.pin()
	defer ep.unpin()
	if !s.checkFresh(w, ep, minLSN) {
		return
	}
	resp := vertexResponse{Epoch: ep.seq, EpochLSN: ep.lsn, Vertex: uint32(id)}
	for _, p := range ep.comp.Partitions() {
		pl := vertexPlacement{Master: p.Master(v)}
		for _, c := range p.Copies(v) {
			pl.Copies = append(pl.Copies, int(c))
			pl.Status = append(pl.Status, p.Status(int(c), v).String())
		}
		// Degrees and neighborhood come from the complete copy when one
		// exists (it holds every incident arc), else the master copy —
		// deterministic, and purely a function of the pinned epoch.
		at := p.CompleteFragment(v)
		if at < 0 {
			at = p.Master(v)
		}
		if adj := p.Fragment(at).Adjacency(v); adj != nil {
			pl.OutDegree = len(adj.Out)
			pl.InDegree = len(adj.In)
			pl.Out = make([]uint32, len(adj.Out))
			for i, u := range adj.Out {
				pl.Out[i] = uint32(u)
			}
		}
		resp.Partitions = append(resp.Partitions, pl)
	}
	writeJSON(w, http.StatusOK, resp)
}

type algoMetrics struct {
	Algo         string  `json:"algo"`
	Partition    int     `json:"partition"`
	FV           float64 `json:"fv"`
	FE           float64 `json:"fe"`
	LambdaV      float64 `json:"lambda_v"`
	LambdaE      float64 `json:"lambda_e"`
	ParallelCost float64 `json:"parallel_cost"`
	LambdaCost   float64 `json:"lambda_cost"`
}

type metricsResponse struct {
	Epoch       uint64         `json:"epoch"`
	EpochLSN    uint64         `json:"epoch_lsn"`
	Pinned      int64          `json:"pinned"`
	K           int            `json:"k"`
	N           int            `json:"n"`
	FC          float64        `json:"fc"`
	StorageArcs int            `json:"storage_arcs"`
	Algorithms  []algoMetrics  `json:"algorithms"`
	Store       storeMetrics   `json:"store"`
	Wal         store.WalStats `json:"wal"`
	Server      serverMetrics  `json:"server"`
	Epochs      epochMetrics   `json:"epochs"`
	Maintenance *MaintStatus   `json:"maintenance,omitempty"`
}

// epochMetrics is the epoch memory-accounting block: how many epochs
// are held live (current + superseded-but-pinned), how the last
// publish shared against its predecessor, and the approximate bytes it
// newly materialized versus the epoch's full resident size.
type epochMetrics struct {
	Retained        int   `json:"retained"`
	LastPublishNS   int64 `json:"last_publish_ns"`
	SharedFragments int   `json:"shared_fragments"`
	OwnedFragments  int   `json:"owned_fragments"`
	ApproxNewBytes  int64 `json:"approx_new_bytes"`
	ApproxBytes     int64 `json:"approx_epoch_bytes"`
}

type storeMetrics struct {
	LSN       uint64 `json:"lsn"`
	Committed int64  `json:"committed_mutations"`
	Failed    bool   `json:"write_path_failed"`
}

type serverMetrics struct {
	Inflight        int   `json:"inflight_runs"`
	Served          int64 `json:"runs_served"`
	Rejected        int64 `json:"runs_rejected"`
	RunFailures     int64 `json:"run_failures"`
	EpochSwaps      int64 `json:"epoch_swaps"`
	UpdatesApplied  int64 `json:"updates_applied"`
	ApplyRetries    int64 `json:"apply_retries"`
	MaintPromotions int64 `json:"maint_promotions"`
	MaintRollbacks  int64 `json:"maint_rollbacks"`
	Draining        bool  `json:"draining"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	ep := s.pin()
	defer ep.unpin()
	ep.metrics()
	resp := metricsResponse{
		Epoch:       ep.seq,
		EpochLSN:    ep.lsn,
		Pinned:      ep.pins.Load(),
		K:           ep.comp.K(),
		N:           ep.comp.N(),
		FC:          ep.fc,
		StorageArcs: ep.storageArcs,
		Store: storeMetrics{
			LSN:       s.lastLSN.Load(),
			Committed: s.committed.Load(),
			Failed:    s.storeFailed.Load(),
		},
		Server: serverMetrics{
			Inflight:        len(s.admit),
			Served:          s.served.Load(),
			Rejected:        s.rejected.Load(),
			RunFailures:     s.runFailures.Load(),
			EpochSwaps:      s.epochSwaps.Load(),
			UpdatesApplied:  s.updatesApplied.Load(),
			ApplyRetries:    s.applyRetries.Load(),
			MaintPromotions: s.maintPromotions.Load(),
			MaintRollbacks:  s.maintRollbacks.Load(),
			Draining:        s.draining.Load(),
		},
		Wal:         s.st.WalStats(),
		Maintenance: s.maintStatusSnapshot(),
	}
	retained, ems := s.epochMemSnapshot()
	resp.Epochs = epochMetrics{
		Retained:        retained,
		LastPublishNS:   ems.publishNS,
		SharedFragments: ems.sharedFragments,
		OwnedFragments:  ems.ownedFragments,
		ApproxNewBytes:  ems.newBytes,
		ApproxBytes:     ep.fullBytes,
	}
	for i, a := range costmodel.Algos() {
		j := ep.comp.PartitionFor(a)
		resp.Algorithms = append(resp.Algorithms, algoMetrics{
			Algo: a.String(), Partition: j,
			FV: ep.met[j].FV, FE: ep.met[j].FE,
			LambdaV: ep.met[j].LambdaV, LambdaE: ep.met[j].LambdaE,
			ParallelCost: ep.cost[i], LambdaCost: ep.lambda[i],
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// updatesResponse acks a durable batch. Epoch is the snapshot the
// batch became visible in; 0 means the batch committed durably but a
// later batch in the same wave poisoned the store before publish.
type updatesResponse struct {
	Epoch    uint64 `json:"epoch"`
	LSN      uint64 `json:"lsn"`
	Inserts  int    `json:"inserts"`
	Deletes  int    `json:"deletes"`
	Durable  bool   `json:"durable"`
	Visible  bool   `json:"visible"`
	Mutation int    `json:"mutations"`
}

func (s *Server) handleUpdates(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeErr(w, http.StatusServiceUnavailable, "draining", "server is draining")
		return
	}
	if s.storeFailed.Load() {
		writeErr(w, http.StatusServiceUnavailable, "store_failed", "store write path failed; restart to recover")
		return
	}
	muts, err := store.ParseUpdates(http.MaxBytesReader(w, r.Body, 8<<20))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	if len(muts) == 0 {
		writeErr(w, http.StatusBadRequest, "bad_request", "empty update stream")
		return
	}
	// Refused here, a bad mutation costs its sender a 400; in the apply
	// loop it would poison the store for every writer.
	comp := s.cur.Load().comp
	for i, m := range muts {
		if err := m.Check(comp); err != nil {
			writeErr(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("updates: mutation %d: %v", i, err))
			return
		}
	}
	b := &updateBatch{muts: muts, reply: make(chan updateResult, 1)}
	select {
	case s.updates <- b:
	default:
		s.rejected.Add(1)
		writeErr(w, http.StatusTooManyRequests, "overloaded", "update queue full")
		return
	}
	// The apply loop always replies (the reply channel is buffered, so
	// even an abandoned request cannot block it); waiting here keeps
	// the ack strictly after the durable commit.
	res := <-b.reply
	if res.err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: res.err.Error(), Class: "store_failed"})
		return
	}
	writeJSON(w, http.StatusOK, updatesResponse{
		Epoch:    res.epoch,
		LSN:      res.lsn,
		Inserts:  res.inserts,
		Deletes:  res.deletes,
		Durable:  true,
		Visible:  res.epoch != 0,
		Mutation: res.inserts + res.deletes,
	})
}
