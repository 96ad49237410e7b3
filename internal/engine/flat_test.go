package engine

import (
	"reflect"
	"testing"
	"unsafe"

	"adp/internal/gen"
	"adp/internal/graph"
	"adp/internal/partition"
	"adp/internal/pool"
)

// SendVal delivers on the scalar lane with the wire accounting of Send
// with a one-element Data slice: the same count and 16 bytes apiece.
func TestSendValDelivery(t *testing.T) {
	c := testCluster(t, 2).UsePool(pool.Serial())
	const rounds = 6
	step := func(w *WorkerCtx, s int, in Inbox) bool {
		want := 0
		if s >= 1 && s <= rounds {
			want = 1
		}
		if len(in.Msgs) != 0 || len(in.Vals) != want {
			t.Errorf("superstep %d worker %d: inbox %+v, want %d scalar messages", s, w.ID(), in, want)
		}
		for _, m := range in.Vals {
			want := Val{V: graph.VertexID(s - 1), Kind: 9, X: float64(s-1)*10 + float64(1-w.ID())}
			if m != want {
				t.Errorf("superstep %d worker %d got %+v, want %+v", s, w.ID(), m, want)
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
	// rounds messages each way, 16 bytes apiece, as Send would count
	// them.
	if want := (Message{Data: []float64{0}}).Size(); want != 16 {
		t.Fatalf("one-float Message size = %d, want 16", want)
	}
	if rep.MsgBytes[0] != 16*rounds || rep.MsgBytes[1] != 16*rounds {
		t.Fatalf("msg bytes = %v, want %d each", rep.MsgBytes, 16*rounds)
	}
	if rep.MsgCount[0] != rounds || rep.MsgCount[1] != rounds {
		t.Fatalf("msg count = %v, want %d each", rep.MsgCount, rounds)
	}
}

// The scalar lane is what the garbage collector never scans and
// releaseMessages never clears: Val must hold no pointer, and it must
// stay 16 bytes, the wire size the accounting charges.
func TestValIsPointerFree(t *testing.T) {
	if sz := unsafe.Sizeof(Val{}); sz != 16 {
		t.Fatalf("unsafe.Sizeof(Val{}) = %d, want 16", sz)
	}
	var pointerFree func(reflect.Type) bool
	pointerFree = func(typ reflect.Type) bool {
		switch typ.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
			return true
		case reflect.Array:
			return pointerFree(typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				if !pointerFree(typ.Field(i).Type) {
					return false
				}
			}
			return true
		}
		return false
	}
	typ := reflect.TypeOf(Val{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); !pointerFree(f.Type) {
			t.Errorf("Val.%s (%v) holds a pointer", f.Name, f.Type)
		}
	}
}

// Regression for EnableCostRecording being silently undone by reset():
// two consecutive Runs on the same cluster must both record and both
// harvest — identically, since they execute the same program.
func TestCostRecordingSurvivesConsecutiveRuns(t *testing.T) {
	c := testCluster(t, 2).UsePool(pool.Serial())
	c.EnableCostRecording()
	p := c.Partition()
	step := func(w *WorkerCtx, s int, in Inbox) bool {
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
	step := func(w *WorkerCtx, s int, in Inbox) bool {
		for _, m := range in.Vals {
			w.AddWork(m.X)
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
// not keep a finished run's payloads alive: every rich-lane slot,
// including those past the final length, is zero once Run returns —
// also on a failed run. The scalar lane pins nothing, so it keeps its
// capacity and is not cleared.
func TestRunReleasesMessagePayloads(t *testing.T) {
	c := testCluster(t, 2).UsePool(pool.Serial())
	step := func(w *WorkerCtx, s int, in Inbox) bool {
		if s < 3 {
			// Fewer messages each superstep, so stale slots trail the
			// final length.
			for i := s; i < 3; i++ {
				w.Send(1-w.ID(), Message{V: graph.VertexID(i), Adj: []graph.VertexID{1, 2, 3}})
				w.SendVal(1-w.ID(), graph.VertexID(i), 5, float64(i))
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
			boxes := append([]Inbox{c.inboxes[i]}, w.outbox...)
			for _, box := range boxes {
				for _, m := range box.Msgs[:cap(box.Msgs)] {
					if m.Adj != nil || m.Data != nil || m.V != 0 {
						t.Fatalf("budget %d worker %d: retained message %+v after Run", budget, i, m)
					}
				}
			}
			if cap(c.inboxes[i].Msgs) == 0 || cap(c.inboxes[i].Vals) == 0 || cap(w.outbox[1-i].Vals) == 0 {
				t.Fatalf("budget %d worker %d: message capacity not retained", budget, i)
			}
		}
	}
}
