package refine

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"adp/internal/costmodel"
	"adp/internal/graph"
	"adp/internal/partition"
	"adp/internal/partitioner"
	"adp/internal/pool"
)

func gridPartition(t testing.TB, g *graph.Graph, n int) *partition.Partition {
	t.Helper()
	p, err := partitioner.GridVertexCut(g, n)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// loadModel is a synthetic destination-capacity model for driving
// parallelMigrateCtx without a real partition: each candidate vertex has
// a fixed weight and a destination accepts it while its accumulated
// load stays within the budget. Probes are read-only between barriers,
// exactly like the tracker-backed probes.
type loadModel struct {
	weight map[graph.VertexID]float64
	loads  map[int]float64
}

func (lm *loadModel) probe(_ *costmodel.Tracker, c candidate, j int, budget float64) bool {
	return lm.loads[j]+lm.weight[c.v] <= budget
}

func (lm *loadModel) apply(t *testing.T, budget float64) applyFunc {
	return func(_ *costmodel.Tracker, c candidate, j int, stats *Stats) {
		if lm.loads[j]+lm.weight[c.v] > budget {
			t.Errorf("barrier overshoot: applying v%d (w=%v) onto %d at load %v exceeds budget %v",
				c.v, lm.weight[c.v], j, lm.loads[j], budget)
		}
		lm.loads[j] += lm.weight[c.v]
		stats.Migrated++
	}
}

func vids(cs []candidate) []graph.VertexID {
	out := []graph.VertexID{}
	for _, c := range cs {
		out = append(out, c.v)
	}
	return out
}

// TestParallelMigrateLeftoverAndBudget is the table test for the
// barrier semantics: candidates rejected by every underloaded
// destination come back as leftovers (the ESplit/VMerge input), and
// concurrent probes against the superstep-start state can never
// overshoot the budget thanks to the apply-time re-check.
func TestParallelMigrateLeftoverAndBudget(t *testing.T) {
	cases := []struct {
		name         string
		weights      map[graph.VertexID]float64
		candidates   []candidate
		under        []int
		budget       float64
		batchSize    int
		wantLeftover []graph.VertexID
		wantLoads    map[int]float64
		wantMigrated int
	}{
		{
			name:         "all fit first destination",
			weights:      map[graph.VertexID]float64{1: 2, 2: 3, 3: 4},
			candidates:   []candidate{{frag: 9, v: 1}, {frag: 9, v: 2}, {frag: 9, v: 3}},
			under:        []int{0, 1},
			budget:       10,
			batchSize:    8,
			wantLeftover: []graph.VertexID{},
			wantLoads:    map[int]float64{0: 9},
			wantMigrated: 3,
		},
		{
			name:         "rejected everywhere returns every candidate",
			weights:      map[graph.VertexID]float64{1: 7, 2: 8},
			candidates:   []candidate{{frag: 9, v: 1}, {frag: 9, v: 2}},
			under:        []int{0, 1, 2},
			budget:       5,
			batchSize:    8,
			wantLeftover: []graph.VertexID{1, 2},
			wantLoads:    map[int]float64{},
			wantMigrated: 0,
		},
		{
			name:    "optimistic batch cannot overshoot at the barrier",
			weights: map[graph.VertexID]float64{1: 6, 2: 6, 3: 6},
			// All three probe against load 0 and pass; only the first
			// survives the apply-time re-check, the rest are rejected
			// by the single destination and become leftovers.
			candidates:   []candidate{{frag: 9, v: 1}, {frag: 9, v: 2}, {frag: 9, v: 3}},
			under:        []int{4},
			budget:       10,
			batchSize:    8,
			wantLeftover: []graph.VertexID{2, 3},
			wantLoads:    map[int]float64{4: 6},
			wantMigrated: 1,
		},
		{
			name:    "rejected by first destination lands on second",
			weights: map[graph.VertexID]float64{1: 6, 2: 6},
			// Superstep 1: both target under[0], one applies. The
			// reject retries under[1] next superstep and fits.
			candidates:   []candidate{{frag: 9, v: 1}, {frag: 9, v: 2}},
			under:        []int{0, 1},
			budget:       6,
			batchSize:    8,
			wantLeftover: []graph.VertexID{},
			wantLoads:    map[int]float64{0: 6, 1: 6},
			wantMigrated: 2,
		},
		{
			name:         "exact budget boundary is accepted",
			weights:      map[graph.VertexID]float64{1: 5, 2: 5},
			candidates:   []candidate{{frag: 9, v: 1}, {frag: 9, v: 2}},
			under:        []int{3},
			budget:       10,
			batchSize:    1,
			wantLeftover: []graph.VertexID{},
			wantLoads:    map[int]float64{3: 10},
			wantMigrated: 2,
		},
		{
			name:    "own fragment is skipped in the rotation",
			weights: map[graph.VertexID]float64{1: 2},
			// under[0] is the candidate's own fragment: the schedule
			// must route it to under[1] instead of migrating in place.
			candidates:   []candidate{{frag: 0, v: 1}},
			under:        []int{0, 1},
			budget:       10,
			batchSize:    8,
			wantLeftover: []graph.VertexID{},
			wantLoads:    map[int]float64{1: 2},
			wantMigrated: 1,
		},
		{
			name:         "no underloaded destinations returns input unchanged",
			weights:      map[graph.VertexID]float64{1: 1, 2: 1},
			candidates:   []candidate{{frag: 9, v: 1}, {frag: 9, v: 2}},
			under:        nil,
			budget:       10,
			batchSize:    8,
			wantLeftover: []graph.VertexID{1, 2},
			wantLoads:    map[int]float64{},
			wantMigrated: 0,
		},
		{
			name:         "zero candidates",
			weights:      map[graph.VertexID]float64{},
			candidates:   nil,
			under:        []int{0},
			budget:       10,
			batchSize:    8,
			wantLeftover: []graph.VertexID{},
			wantLoads:    map[int]float64{},
			wantMigrated: 0,
		},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			pl := pool.New(workers)
			t.Run(tc.name, func(t *testing.T) {
				lm := &loadModel{weight: tc.weights, loads: map[int]float64{}}
				stats := &Stats{}
				leftover, _ := parallelMigrateCtx(context.Background(), pl, nil, tc.candidates, tc.under, tc.budget,
					tc.batchSize, lm.probe, lm.apply(t, tc.budget), stats, nil)
				if got := vids(leftover); !reflect.DeepEqual(got, tc.wantLeftover) {
					t.Errorf("workers=%d: leftover = %v, want %v", workers, got, tc.wantLeftover)
				}
				for j, want := range tc.wantLoads {
					if lm.loads[j] != want {
						t.Errorf("workers=%d: load[%d] = %v, want %v", workers, j, lm.loads[j], want)
					}
				}
				for j, got := range lm.loads {
					if got > tc.budget {
						t.Errorf("workers=%d: destination %d ended over budget: %v > %v", workers, j, got, tc.budget)
					}
					if _, ok := tc.wantLoads[j]; !ok && got != 0 {
						t.Errorf("workers=%d: unexpected load on destination %d: %v", workers, j, got)
					}
				}
				if stats.Migrated != tc.wantMigrated {
					t.Errorf("workers=%d: Migrated = %d, want %d", workers, stats.Migrated, tc.wantMigrated)
				}
			})
			pl.Close()
		}
	}
}

// statsFingerprint projects Stats onto its schedule-dependent fields
// (wall-clock durations excluded).
func statsFingerprint(s *Stats) [5]float64 {
	return [5]float64{s.Budget, float64(s.Migrated), float64(s.SplitEdges), float64(s.Merged), float64(s.MastersMoved)}
}

// TestRefinerStatsDeterministicAcrossWorkerCounts locks in the
// acceptance criterion that refiner Stats — and the refined partition
// costs behind them — are bitwise identical for pool worker counts 1,
// 4 and GOMAXPROCS.
func TestRefinerStatsDeterministicAcrossWorkerCounts(t *testing.T) {
	counts := []int{1, 4, runtime.GOMAXPROCS(0)}

	t.Run("ParE2H", func(t *testing.T) {
		g := skewedDirected()
		m := costmodel.Reference(costmodel.CN)
		base := hubConcentratedEdgeCut(t, g, 4)
		var refStats [5]float64
		var refCosts []costmodel.FragCost
		for i, w := range counts {
			pl := pool.New(w)
			p := base.Clone()
			stats := ParE2H(p, m, Config{Pool: pl})
			costs := costmodel.Evaluate(p, m)
			pl.Close()
			if i == 0 {
				refStats, refCosts = statsFingerprint(stats), costs
				continue
			}
			if got := statsFingerprint(stats); got != refStats {
				t.Errorf("workers=%d: stats %v differ from serial %v", w, got, refStats)
			}
			if !reflect.DeepEqual(costs, refCosts) {
				t.Errorf("workers=%d: refined fragment costs differ from serial run", w)
			}
		}
	})

	t.Run("ParV2H", func(t *testing.T) {
		g := skewedUndirected()
		m := costmodel.Reference(costmodel.TC)
		base := gridPartition(t, g, 4)
		var refStats [5]float64
		var refCosts []costmodel.FragCost
		for i, w := range counts {
			pl := pool.New(w)
			p := base.Clone()
			stats := ParV2H(p, m, Config{Pool: pl})
			costs := costmodel.Evaluate(p, m)
			pl.Close()
			if i == 0 {
				refStats, refCosts = statsFingerprint(stats), costs
				continue
			}
			if got := statsFingerprint(stats); got != refStats {
				t.Errorf("workers=%d: stats %v differ from serial %v", w, got, refStats)
			}
			if !reflect.DeepEqual(costs, refCosts) {
				t.Errorf("workers=%d: refined fragment costs differ from serial run", w)
			}
		}
	})
}
