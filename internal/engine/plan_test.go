package engine

import (
	"math/rand"
	"testing"

	"adp/internal/costmodel"
	"adp/internal/gen"
	"adp/internal/graph"
	"adp/internal/partition"
	"adp/internal/partitioner"
	"adp/internal/refine"
)

// refResponsibleFor is the placement rule stated against the partition
// alone, with no engine index behind it: worker i must store the arc;
// an e-cut subject computes at its e-cut node; a v-cut subject's arc
// goes to its lowest holder.
func refResponsibleFor(p *partition.Partition, i int, subject, u, v graph.VertexID) bool {
	if !p.Fragment(i).HasArc(u, v) {
		return false
	}
	for _, j := range p.Copies(subject) {
		if p.Status(int(j), subject) == partition.ECutNode {
			return int(j) == i
		}
	}
	for j := 0; j < i; j++ {
		if p.Fragment(j).HasArc(u, v) {
			return false
		}
	}
	return true
}

// planPartitions builds one seeded partition per family the plan must
// hold on: edge-cut, vertex-cut, the hybrids E2H and V2H leave behind,
// and a copy-on-write clone mutated after its base was compiled (so the
// plan is read from a recompiled base of several chunks, partly shared).
func planPartitions(t *testing.T, seed int64) map[string]*partition.Partition {
	t.Helper()
	g := gen.PowerLaw(gen.PowerLawConfig{N: 260, AvgDeg: 5, Exponent: 2.1, Seed: seed})
	build := func(p *partition.Partition, err error) *partition.Partition {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	out := map[string]*partition.Partition{
		"edge-cut":   build(partitioner.FennelEdgeCut(g, 4, partitioner.FennelConfig{})),
		"vertex-cut": build(partitioner.GridVertexCut(g, 4)),
	}
	e2h := build(partitioner.FennelEdgeCut(g, 4, partitioner.FennelConfig{}))
	refine.E2H(e2h, costmodel.Reference(costmodel.CN), refine.Config{})
	out["e2h"] = e2h
	v2h := build(partitioner.GridVertexCut(g, 4))
	refine.V2H(v2h, costmodel.Reference(costmodel.TC), refine.Config{})
	out["v2h"] = v2h

	// Move a seeded handful of edges between fragments of a COW clone:
	// replicas appear and disappear, vertex copies with them.
	cow := build(partitioner.HashEdgeCut(g, 4)).CloneCOW()
	rng := rand.New(rand.NewSource(seed))
	var edges [][2]graph.VertexID
	g.Edges(func(u, v graph.VertexID) bool {
		edges = append(edges, [2]graph.VertexID{u, v})
		return true
	})
	for n := 0; n < 40; n++ {
		e := edges[rng.Intn(len(edges))]
		from, to := rng.Intn(4), rng.Intn(4)
		if cow.Fragment(from).HasArc(e[0], e[1]) && from != to {
			cow.AddEdge(to, e[0], e[1])
			if n%2 == 0 {
				cow.RemoveEdge(from, e[0], e[1])
			}
		}
	}
	// The folds keep each fragment's chunk table, so the plan is read
	// across chunk boundaries, and from chunks a fold re-packed.
	cow.Compile()
	for i := 0; i < cow.NumFragments(); i++ {
		if n := cow.Fragment(i).NumChunks(); n < 2 {
			t.Fatalf("cow-mutated fragment %d has %d chunks, want several", i, n)
		}
	}
	out["cow-mutated"] = cow
	return out
}

// TestPlanMatchesResponsibleFor: on every partition family, every bit
// of both scans equals the placement rule, stated independently and as
// ResponsibleFor answers it; every (subject, arc) pair is set at
// exactly one worker; and the translated lists and per-vertex flags
// agree with the partition's own accessors.
func TestPlanMatchesResponsibleFor(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for name, p := range planPartitions(t, seed) {
			c := NewCluster(p)
			// owners[dir][arc] counts the workers whose scan of that
			// direction has the arc's bit set.
			var owners [2]map[[2]graph.VertexID]int
			stored := map[[2]graph.VertexID]bool{}
			for dir := range owners {
				owners[dir] = map[[2]graph.VertexID]int{}
			}
			for i := 0; i < p.NumFragments(); i++ {
				w := c.Worker(i)
				pl := w.Plan()
				for dir, sc := range []*Scan{w.OutScan(), w.InScan()} {
					for l, subject := range pl.IDs {
						list := pl.Adjs[l].Out
						if dir == 1 {
							list = pl.Adjs[l].In
						}
						if int(sc.Off[l+1]-sc.Off[l]) != len(list) {
							t.Fatalf("%s seed %d worker %d: list %d of vertex %d has %d positions, want %d",
								name, seed, i, dir, subject, sc.Off[l+1]-sc.Off[l], len(list))
						}
						any := false
						for j, x := range list {
							k := sc.Off[l] + int32(j)
							if sc.NbrID(k) != x || pl.IDs[sc.Nbr[k]] != x {
								t.Fatalf("%s seed %d worker %d: position %d names %d / local %d, want %d",
									name, seed, i, k, sc.NbrID(k), sc.Nbr[k], x)
							}
							arc := [2]graph.VertexID{subject, x}
							if dir == 1 {
								arc = [2]graph.VertexID{x, subject}
							}
							stored[arc] = true
							got := sc.Responsible(k)
							if want := refResponsibleFor(p, i, subject, arc[0], arc[1]); got != want {
								t.Fatalf("%s seed %d worker %d: plan bit for subject %d arc %v = %v, rule says %v",
									name, seed, i, subject, arc, got, want)
							}
							if probe := w.ResponsibleFor(subject, arc[0], arc[1]); got != probe {
								t.Fatalf("%s seed %d worker %d: plan bit for subject %d arc %v = %v, ResponsibleFor %v",
									name, seed, i, subject, arc, got, probe)
							}
							if got {
								owners[dir][arc]++
								any = true
							}
						}
						if sc.AnyResponsible(l) != any {
							t.Fatalf("%s seed %d worker %d: AnyResponsible(%d) = %v", name, seed, i, l, !any)
						}
					}
				}
				for l, v := range pl.IDs {
					st := p.Status(i, v)
					want := VertexFlags(0)
					if p.Master(v) == i {
						want |= FlagMaster
					}
					if p.IsBorder(v) {
						want |= FlagBorder
						if m := p.Master(v); m != i && !p.IsComplete(m, v) {
							want |= FlagShares
						}
					}
					if p.IsComplete(i, v) {
						want |= FlagComplete
					}
					if st == partition.ECutNode || st == partition.VCutNode && p.Master(v) == i {
						want |= FlagCompute
					}
					if pl.Flags[l] != want {
						t.Fatalf("%s seed %d worker %d: flags of %d = %05b, want %05b", name, seed, i, v, pl.Flags[l], want)
					}
				}
			}
			for arc := range stored {
				for dir := range owners {
					if n := owners[dir][arc]; n != 1 {
						t.Fatalf("%s seed %d: arc %v (direction %d) is responsible at %d workers", name, seed, arc, dir, n)
					}
				}
			}
		}
	}
}
