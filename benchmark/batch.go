package main

import (
	"fmt"
	"math"
	"time"
)

// The two batch workloads: refine_pipeline (the paper's Exp-1/Exp-3 as
// a library user meets them) and composite_build (Exp-2/Exp-4). One
// operation is one pass; a pass re-runs the base partitioner instead of
// cloning a kept base partition. aux is the application part of a pass:
// building the clusters and running the algorithms, the "processing
// time" that partitioning time is paid for.

// Passes per second of run at HEAD on the reference box, full profile.
const (
	refinePassesPerSecond    = 0.6
	compositePassesPerSecond = 0.6
)

// batchOracle holds what a batch workload's outputs are checked
// against: the sequential outcome per algorithm, and the engine's
// simulated cost on the two unrefined base partitions, the denominator
// of quality_ratio. It is computed once per run, untimed.
type batchOracle struct {
	seq      []outcome    // per algorithm
	baseSim  [][2]float64 // per algorithm: on Fennel, on Grid
	baseMod  [][2]float64 // the cost model's own estimate on the bases
	baseWall []float64    // the 10 base runs' wall, for the rank correlation
	baseCost []float64    // and their simulated cost, same order
}

func (r *run) newBatchOracle(g *Graph, models []CostModel) (*batchOracle, error) {
	o := &batchOracle{}
	bases := [2]func(*Graph) (*Partition, error){fennelEdgeCut, gridVertexCut}
	for ai, a := range algos() {
		o.seq = append(o.seq, seqOutcome(g, a))
		var sim, mod [2]float64
		for fam, base := range bases {
			p, err := base(g)
			if err != nil {
				return nil, err
			}
			mod[fam] = modelledCost(p, models[ai])
			t0 := time.Now()
			out, err := runAlgo(newCluster(p, false), a)
			if err != nil {
				return nil, err
			}
			o.baseWall = append(o.baseWall, sec(time.Since(t0)))
			o.baseCost = append(o.baseCost, out.SimCost)
			r.checkOutcome(fmt.Sprintf("base %v/%d", a, fam), out, o.seq[ai])
			sim[fam] = out.SimCost
		}
		o.baseSim = append(o.baseSim, sim)
		o.baseMod = append(o.baseMod, mod)
	}
	return o, nil
}

// checkOutcome is the engine oracle: Value to 1e-9 relative, Checksum
// exactly.
func (r *run) checkOutcome(what string, got, want outcome) {
	tol := 1e-9 * math.Max(math.Abs(want.Value), 1)
	r.check(math.Abs(got.Value-want.Value) <= tol && got.Checksum == want.Checksum,
		"%s: value %v checksum %d, sequential oracle has %v / %d", what, got.Value, got.Checksum, want.Value, want.Checksum)
}

// passOut is what one pass produced.
type passOut struct {
	wall, app      time.Duration // app: cluster builds + algorithm runs
	refine, engine time.Duration // refiner time; algorithm-run time
	outs           []outcome     // one per pipeline, algorithm-major, Fennel side first
	runWall        []float64
	parts          []*Partition // refined partitions
	comps          []*Composite
	storage        float64            // storage_ratio
	counts         map[string]float64 // figures that must repeat exactly
}

// batch is either batch workload; pass is what tells them apart.
type batch struct {
	pass   func(b *batch, r *run, op int, serial bool) (*passOut, error)
	rate   float64
	g      *Graph
	models []CostModel
	oracle *batchOracle
	last   *passOut
}

func (b *batch) setUp(r *run) error {
	b.g, b.models = genPowerLaw(r.cfg.prof.n, false, r.cfg.seed), referenceModels()
	_, err := b.pass(b, r, -1, false) // warm-up
	return err
}

func (b *batch) tearDown() error { return nil }

func (b *batch) measure(r *run) error {
	if b.oracle == nil { // the same graph every round
		var err error
		if b.oracle, err = r.newBatchOracle(b.g, b.models); err != nil {
			return err
		}
	}
	total := 0.0
	for i := 0; i < r.cfg.opsPerRound(b.rate); i++ {
		po, err := b.pass(b, r, i, false)
		if err != nil {
			return err
		}
		total += sec(po.wall)
		r.sample("op", sec(po.wall))
		r.sample("aux", sec(po.app))
		r.sample("quality_ratio", b.verify(r, po))
		r.sample("storage_ratio", po.storage)
		if r.cfg.trace {
			b.last = po // layers looks at the last traced pass
		}
	}
	r.sample("op_wall", total)
	return nil
}

// verify runs the oracles on a finished pass, outside its timing, and
// returns the pass's quality_ratio.
func (b *batch) verify(r *run, po *passOut) float64 {
	var ratios []float64
	for i, out := range po.outs {
		r.checkOutcome(fmt.Sprintf("pipeline %d", i), out, b.oracle.seq[i/2])
		ratios = append(ratios, out.SimCost/b.oracle.baseSim[i/2][i%2])
	}
	for i, p := range po.parts {
		err := validatePartition(p)
		r.check(err == nil, "refined partition %d: %v", i, err)
	}
	for i, c := range po.comps {
		err := validateComposite(c)
		r.check(err == nil, "composite %d: %v", i, err)
	}
	for name, v := range po.counts {
		r.exact(name, v)
	}
	q := geoMean(ratios)
	r.exact("pass quality_ratio", q)
	r.exact("pass storage_ratio", po.storage)
	return q
}

// runOn builds a cluster over p and runs a on it.
func (r *run) runOn(p *Partition, a Algo, root, op int, serial bool, po *passOut) error {
	t0 := time.Now()
	var c *Cluster
	r.tr.do("engine", "new_cluster", root, op, func() { c = newCluster(p, serial) })
	t1 := time.Now()
	var out outcome
	var err error
	r.tr.do("algorithms", "run", root, op, func() { out, err = runAlgo(c, a) })
	if err != nil {
		return err
	}
	po.engine += time.Since(t1)
	po.runWall = append(po.runWall, sec(time.Since(t1)))
	po.app += time.Since(t0)
	po.outs = append(po.outs, out)
	po.counts["engine.supersteps"] += float64(out.Supersteps)
	po.counts["engine.msg_bytes"] += float64(out.MsgBytes)
	return nil
}

// refinePass is one pass of refine_pipeline: for each of the 5
// algorithms, FennelEdgeCut -> ParE2H -> NewCluster -> Run and
// GridVertexCut -> ParV2H -> NewCluster -> Run.
func refinePass(b *batch, r *run, op int, serial bool) (*passOut, error) {
	po := &passOut{counts: map[string]float64{}}
	root := r.tr.start("harness", "pass", -1, op)
	t0 := time.Now()
	for ai, a := range algos() {
		for fam := 0; fam < 2; fam++ {
			var p *Partition
			var err error
			if fam == 0 {
				r.tr.do("partitioner", "fennel", root, op, func() { p, err = fennelEdgeCut(b.g) })
			} else {
				r.tr.do("partitioner", "grid", root, op, func() { p, err = gridVertexCut(b.g) })
			}
			if err != nil {
				return nil, err
			}
			t1 := time.Now()
			id := r.tr.start("refine", [2]string{"e2h", "v2h"}[fam], root, op)
			var st refineStats
			if fam == 0 {
				st = parE2H(p, b.models[ai], serial)
			} else {
				st = parV2H(p, b.models[ai], serial)
			}
			r.tr.stop(id)
			po.refine += time.Since(t1)
			var off time.Duration
			for ph, d := range st.Phases {
				r.tr.child("refine", [3]string{"phase_migrate", "phase_split_merge", "phase_massign"}[ph], id, op, off, d)
				off += d
			}
			if err := r.runOn(p, a, root, op, serial, po); err != nil {
				return nil, err
			}
			po.counts[fmt.Sprintf("pipeline %d budget", len(po.parts))] = st.Budget
			po.counts["refine.migrated"] += float64(st.Migrated)
			po.counts["refine.split_edges"] += float64(st.SplitEdges)
			po.counts["refine.merged"] += float64(st.Merged)
			po.counts["refine.masters_moved"] += float64(st.MastersMoved)
			po.parts = append(po.parts, p)
		}
	}
	po.wall = time.Since(t0)
	r.tr.stop(root)
	arcs := 0
	for _, p := range po.parts {
		arcs += storageArcs(p)
	}
	po.storage = float64(arcs) / float64(len(po.parts)) / float64(numArcs(b.g))
	return po, nil
}

// compositePass is one pass of composite_build: ME2H over a Fennel
// base and MV2H over a Grid base for the 5 models, then each algorithm
// once on its partition of each composite.
func compositePass(b *batch, r *run, op int, serial bool) (*passOut, error) {
	po := &passOut{counts: map[string]float64{}}
	root := r.tr.start("harness", "pass", -1, op)
	t0 := time.Now()
	var err error
	var base *Partition
	var st [2]compositeStats
	comps := make([]*Composite, 2)
	r.tr.do("partitioner", "fennel", root, op, func() { base, err = fennelEdgeCut(b.g) })
	if err != nil {
		return nil, err
	}
	r.tr.do("composite", "me2h", root, op, func() { comps[0], st[0], err = buildME2H(base, b.models) })
	if err != nil {
		return nil, err
	}
	r.tr.do("partitioner", "grid", root, op, func() { base, err = gridVertexCut(b.g) })
	if err != nil {
		return nil, err
	}
	r.tr.do("composite", "mv2h", root, op, func() { comps[1], st[1], err = buildMV2H(base, b.models) })
	if err != nil {
		return nil, err
	}
	for j, a := range algos() {
		for _, c := range comps {
			if err := r.runOn(compositePart(c, j), a, root, op, serial, po); err != nil {
				return nil, err
			}
		}
	}
	po.wall = time.Since(t0)
	r.tr.stop(root)
	po.comps = comps
	po.counts["composite.init_shared"] = float64(st[0].InitShared + st[1].InitShared)
	po.counts["composite.storage_arcs"] = float64(st[0].StorageArcs + st[1].StorageArcs)
	po.storage = (compositeFC(comps[0]) + compositeFC(comps[1])) / 2
	return po, nil
}

// layers reports the traced passes span by span, the cost model's own
// view of the refined partitions, and what the shared worker pool buys.
func (b *batch) layers(r *run) error {
	count, perOp := r.spanReport()
	for _, name := range []string{"partitioner.fennel", "partitioner.grid", "refine.e2h", "refine.v2h",
		"refine.phase_migrate", "refine.phase_split_merge", "refine.phase_massign",
		"engine.new_cluster", "algorithms.run", "composite.me2h", "composite.mv2h"} {
		r.set(name+"_s", perOp(name), count)
	}

	last := b.last
	if len(last.parts) > 0 {
		var ratios []float64
		t0 := time.Now()
		r.tr.on = true
		r.tr.do("costmodel", "evaluate", -1, count, func() {
			for i, p := range last.parts {
				ratios = append(ratios, modelledCost(p, b.models[i/2])/b.oracle.baseMod[i/2][i%2])
			}
		})
		r.tr.on = false
		r.set("costmodel.evaluate_s", sec(time.Since(t0)), len(last.parts))
		r.exact("costmodel.parallel_cost_ratio", geoMean(ratios))
	}

	var simCost []float64
	for _, out := range last.outs {
		simCost = append(simCost, out.SimCost)
	}
	r.set("engine.wall_sim_rank_corr",
		spearman(append(b.oracle.baseWall, last.runWall...), append(b.oracle.baseCost, simCost...)), len(simCost)+len(b.oracle.baseCost))

	// One more pass on single-worker pools.
	serial, err := b.pass(b, r, -1, true)
	if err != nil {
		return err
	}
	b.verify(r, serial)
	if last.refine > 0 {
		r.set("refine.pool_speedup_x", float64(serial.refine)/float64(last.refine), 1)
	}
	r.set("engine.pool_speedup_x", float64(serial.engine)/float64(last.engine), 1)
	return nil
}
