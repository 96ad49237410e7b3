package algorithms

import (
	"fmt"

	"adp/internal/costmodel"
	"adp/internal/engine"
	"adp/internal/graph"
)

// Options bundles the per-algorithm knobs for the uniform Run entry
// point used by the experiment drivers.
type Options struct {
	CNTheta      int            // CN in-degree filter (≤0 disables)
	SSSPSource   graph.VertexID // SSSP source vertex
	PRIterations int            // PageRank iterations (0 = default 10)
}

// Outcome summarises one distributed run in a partition-independent
// way: Value and Checksum must agree (Value within float tolerance for
// PR/SSSP) across any two correct partitions of the same graph.
type Outcome struct {
	Algo     costmodel.Algo
	Value    float64
	Checksum uint64
	Report   *engine.Report
}

// Run executes the algorithm over the cluster's partition. On failure
// the returned Outcome still carries the engine's partial Report (the
// error is typically an *engine.FailedRunError), so callers can
// account for interrupted runs instead of discarding them.
func Run(c *engine.Cluster, algo costmodel.Algo, opts Options) (Outcome, error) {
	out := Outcome{Algo: algo}
	switch algo {
	case costmodel.CN:
		res, rep, err := RunCN(c, CNOptions{Theta: opts.CNTheta})
		if err != nil {
			out.Report = rep
			return out, err
		}
		out.Value, out.Checksum, out.Report = float64(res.Triples), res.Checksum, rep
	case costmodel.TC:
		count, rep, err := RunTC(c)
		if err != nil {
			out.Report = rep
			return out, err
		}
		out.Value, out.Report = float64(count), rep
	case costmodel.WCC:
		res, rep, err := RunWCC(c)
		if err != nil {
			out.Report = rep
			return out, err
		}
		out.Value, out.Checksum, out.Report = float64(res.Count), labelChecksum(res.Labels), rep
	case costmodel.PR:
		rank, rep, err := RunPR(c, PROptions{Iterations: opts.PRIterations})
		if err != nil {
			out.Report = rep
			return out, err
		}
		out.Value, out.Report = weightedSum(rank), rep
	case costmodel.SSSP:
		res, rep, err := RunSSSP(c, opts.SSSPSource)
		if err != nil {
			out.Report = rep
			return out, err
		}
		reach := 0
		sum := 0.0
		for _, d := range res.Dist {
			if d < Unreachable {
				reach++
				sum += d
			}
		}
		out.Value, out.Checksum, out.Report = sum, uint64(reach), rep
	default:
		return out, fmt.Errorf("algorithms: unknown algorithm %v", algo)
	}
	return out, nil
}

// SeqOutcome computes the same Outcome on the unpartitioned graph —
// the correctness oracle and "no partitioning" comparator.
func SeqOutcome(g *graph.Graph, algo costmodel.Algo, opts Options) Outcome {
	out := Outcome{Algo: algo}
	switch algo {
	case costmodel.CN:
		res := CNSeq(g, opts.CNTheta)
		out.Value, out.Checksum = float64(res.Triples), res.Checksum
	case costmodel.TC:
		out.Value = float64(TCSeq(g))
	case costmodel.WCC:
		labels, count := WCCSeq(g)
		out.Value, out.Checksum = float64(count), labelChecksum(labels)
	case costmodel.PR:
		iters := opts.PRIterations
		if iters == 0 {
			iters = 10
		}
		out.Value = weightedSum(PRSeq(g, iters, 0.85))
	case costmodel.SSSP:
		dist := SSSPSeq(g, opts.SSSPSource)
		reach := 0
		sum := 0.0
		for _, d := range dist {
			if d < Unreachable {
				reach++
				sum += d
			}
		}
		out.Value, out.Checksum = sum, uint64(reach)
	}
	return out
}

// labelChecksum is an order-independent digest of a component
// labelling that is invariant to which member names the component:
// each vertex contributes a hash of (v, its component's smallest id).
// WCC labellings produced here always use smallest-member labels.
func labelChecksum(labels []graph.VertexID) uint64 {
	var sum uint64
	for v, l := range labels {
		sum += pairHash(graph.VertexID(v), l, 0)
	}
	return sum
}

// weightedSum reduces a rank vector to a comparable scalar with
// per-vertex weights, so permuted errors cannot cancel.
func weightedSum(rank []float64) float64 {
	s := 0.0
	for v, r := range rank {
		s += r * float64(v%97+1)
	}
	return s
}

// reuseState makes the worker's Scratch its State for a new Run and
// returns it: the state the previous Run of the same algorithm left
// behind, whose buffers are warm, or a fresh one the first time.
func reuseState[T any](w *engine.WorkerCtx) *T {
	st, _ := w.Scratch.(*T)
	if st == nil {
		st = new(T)
		w.Scratch = st
	}
	w.State = st
	return st
}

// sized returns s with length n and every element zero, reusing its
// capacity when it suffices.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
