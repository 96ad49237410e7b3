package engine

import (
	"testing"

	"adp/internal/gen"
	"adp/internal/graph"
	"adp/internal/partition"
	"adp/internal/pool"
)

// SendVal must behave exactly like Send with a one-element Data slice:
// same delivery, same payload value, same wire accounting — while the
// payload lives in the worker's reusable arena.
func TestSendValDelivery(t *testing.T) {
	c := testCluster(t, 2).UsePool(pool.Serial())
	const rounds = 6
	step := func(w *WorkerCtx, s int, inbox []Message) bool {
		for _, m := range inbox {
			want := float64(s-1)*10 + float64(1-w.ID())
			if m.Data[0] != want {
				t.Errorf("superstep %d worker %d got %v, want %v", s, w.ID(), m.Data[0], want)
			}
			if m.Size() != 16 {
				t.Errorf("SendVal message size = %d, want 16", m.Size())
			}
		}
		if s < rounds {
			w.SendVal(1-w.ID(), graph.VertexID(s), 9, float64(s)*10+float64(w.ID()))
			return false
		}
		return true
	}
	rep, err := c.Run(nil, step, rounds+3)
	if err != nil {
		t.Fatal(err)
	}
	// rounds messages each way, 16 bytes apiece.
	if rep.MsgBytes[0] != 16*rounds || rep.MsgBytes[1] != 16*rounds {
		t.Fatalf("msg bytes = %v, want %d each", rep.MsgBytes, 16*rounds)
	}
}

// Regression for EnableCostRecording being silently undone by reset():
// two consecutive Runs on the same cluster must both record and both
// harvest — identically, since they execute the same program.
func TestCostRecordingSurvivesConsecutiveRuns(t *testing.T) {
	c := testCluster(t, 2).UsePool(pool.Serial())
	c.EnableCostRecording()
	p := c.Partition()
	step := func(w *WorkerCtx, s int, inbox []Message) bool {
		w.Fragment().Vertices(func(v graph.VertexID, adj *partition.Adj) {
			w.ChargeVertex(v, float64(adj.LocalDegree()))
			if p.IsBorder(v) && p.Master(v) == w.ID() {
				w.ChargeVertexComm(v, 2)
			}
		})
		return true
	}
	run := func() (comp, comm int) {
		t.Helper()
		if _, err := c.Run(nil, step, 2); err != nil {
			t.Fatal(err)
		}
		cs, ms := c.HarvestSamples()
		return len(cs), len(ms)
	}
	comp1, comm1 := run()
	if comp1 == 0 || comm1 == 0 {
		t.Fatalf("first harvest empty: %d comp, %d comm", comp1, comm1)
	}
	comp2, comm2 := run()
	if comp2 != comp1 || comm2 != comm1 {
		t.Fatalf("second harvest (%d comp, %d comm) differs from first (%d, %d): recording did not survive reset",
			comp2, comm2, comp1, comm1)
	}
}

// The steady-state superstep loop — step fan-out, SendVal, delivery,
// accounting — must not allocate. Measured as a delta: once buffer
// capacities are warmed, a 64-superstep Run must allocate no more than
// an 8-superstep Run, so the marginal cost of a superstep is zero
// heap allocations.
func TestSteadyStateZeroAllocs(t *testing.T) {
	c := testCluster(t, 2).UsePool(pool.Serial())
	limit := 0
	step := func(w *WorkerCtx, s int, inbox []Message) bool {
		for _, m := range inbox {
			w.AddWork(m.Data[0])
		}
		if s < limit {
			w.SendVal(1-w.ID(), graph.VertexID(w.ID()), 3, 1)
			w.SendVal(1-w.ID(), graph.VertexID(w.ID()), 4, 2)
			return false
		}
		return true
	}
	run := func(n int) {
		limit = n
		if _, err := c.Run(nil, step, n+3); err != nil {
			t.Fatal(err)
		}
	}
	run(64) // warm buffer capacities
	short := testing.AllocsPerRun(5, func() { run(8) })
	long := testing.AllocsPerRun(5, func() { run(64) })
	if long > short {
		t.Fatalf("64-superstep run allocates %.1f, 8-superstep run %.1f: %.2f allocs per extra superstep, want 0",
			long, short, (long-short)/56)
	}
}

// BenchmarkResponsibleFor resolves arc responsibility for every in-arc
// of the graph at every worker, the way the PR and CN kernels meet it:
// "probe" asks ResponsibleFor per arc (a binary search each — what the
// kernels did before the scan plan and what fills it), "plan" reads the
// cached bit per list position of a built plan.
func BenchmarkResponsibleFor(b *testing.B) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 4000, AvgDeg: 8, Exponent: 2.1, Directed: true, Seed: 7})
	assign := make([]int, g.NumVertices())
	for v := range assign {
		assign[v] = (v * 13) % 8
	}
	p, err := partition.FromVertexAssignment(g, assign, 8)
	if err != nil {
		b.Fatal(err)
	}
	c := NewCluster(p)
	b.Run("probe", func(b *testing.B) {
		b.ReportAllocs()
		owners := 0
		for i := 0; i < b.N; i++ {
			for _, w := range c.workers {
				w.frag.Vertices(func(v graph.VertexID, adj *partition.Adj) {
					for _, u := range adj.In {
						if w.ResponsibleFor(v, u, v) {
							owners++
						}
					}
				})
			}
		}
		if owners != int(g.NumEdges())*b.N {
			b.Fatalf("owners = %d", owners)
		}
	})
	b.Run("plan", func(b *testing.B) {
		for _, w := range c.workers {
			w.InScan()
		}
		b.ReportAllocs()
		b.ResetTimer()
		owners := 0
		for i := 0; i < b.N; i++ {
			for _, w := range c.workers {
				in := w.InScan()
				for k := range in.Nbr {
					if in.Responsible(int32(k)) {
						owners++
					}
				}
			}
		}
		if owners != int(g.NumEdges())*b.N {
			b.Fatalf("owners = %d", owners)
		}
	})
}

// The inboxes and outboxes keep their capacity between Runs but must
// not keep a finished run's messages alive: every slot, including those
// past the final length, is zero once Run returns — also on a failed
// run.
func TestRunReleasesMessagePayloads(t *testing.T) {
	c := testCluster(t, 2).UsePool(pool.Serial())
	step := func(w *WorkerCtx, s int, inbox []Message) bool {
		if s < 3 {
			// Fewer messages each superstep, so stale slots trail the
			// final length.
			for i := s; i < 3; i++ {
				w.Send(1-w.ID(), Message{V: graph.VertexID(i), Adj: []graph.VertexID{1, 2, 3}})
			}
			return false
		}
		return true
	}
	for _, budget := range []int{6, 2} { // converges; runs out of supersteps
		_, err := c.Run(nil, step, budget)
		if (err != nil) != (budget == 2) {
			t.Fatalf("budget %d: err = %v", budget, err)
		}
		for i, w := range c.workers {
			boxes := append([][]Message{c.inboxes[i]}, w.outbox...)
			for _, box := range boxes {
				for _, m := range box[:cap(box)] {
					if m.Adj != nil || m.Data != nil || m.V != 0 {
						t.Fatalf("budget %d worker %d: retained message %+v after Run", budget, i, m)
					}
				}
			}
			if cap(c.inboxes[i]) == 0 {
				t.Fatalf("budget %d worker %d: inbox capacity not retained", budget, i)
			}
		}
	}
}
