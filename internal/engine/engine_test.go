package engine

import (
	"testing"

	"adp/internal/gen"
	"adp/internal/graph"
	"adp/internal/partition"
)

func testCluster(t testing.TB, n int) *Cluster {
	t.Helper()
	g := gen.ErdosRenyi(120, 4, true, 13)
	assign := make([]int, g.NumVertices())
	for v := range assign {
		assign[v] = v % n
	}
	p, err := partition.FromVertexAssignment(g, assign, n)
	if err != nil {
		t.Fatal(err)
	}
	return NewCluster(p)
}

func TestMessageRouting(t *testing.T) {
	c := testCluster(t, 3)
	var got [3][]float64
	step := func(w *WorkerCtx, s int, inbox []Message) bool {
		switch s {
		case 0:
			// Everyone sends its id to worker (id+1) mod 3.
			w.Send((w.ID()+1)%3, Message{Data: []float64{float64(w.ID())}})
			return false
		case 1:
			for _, m := range inbox {
				got[w.ID()] = append(got[w.ID()], m.Data[0])
			}
			return true
		}
		return true
	}
	rep, err := c.Run(nil, step, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Supersteps != 2 {
		t.Fatalf("supersteps = %d", rep.Supersteps)
	}
	for i := 0; i < 3; i++ {
		want := float64((i + 2) % 3)
		if len(got[i]) != 1 || got[i][0] != want {
			t.Fatalf("worker %d inbox = %v, want [%v]", i, got[i], want)
		}
	}
}

func TestHaltRequiresQuiescence(t *testing.T) {
	c := testCluster(t, 2)
	steps := 0
	step := func(w *WorkerCtx, s int, inbox []Message) bool {
		if w.ID() == 0 {
			steps = s + 1
		}
		// Both halt immediately, but worker 0 keeps a message in
		// flight at superstep 0, forcing one more round.
		if s == 0 && w.ID() == 0 {
			w.Send(1, Message{})
		}
		return true
	}
	if _, err := c.Run(nil, step, 5); err != nil {
		t.Fatal(err)
	}
	if steps != 2 {
		t.Fatalf("ran %d supersteps, want 2 (in-flight message must defer halt)", steps)
	}
}

func TestNoConvergenceError(t *testing.T) {
	c := testCluster(t, 2)
	step := func(w *WorkerCtx, s int, inbox []Message) bool { return false }
	if _, err := c.Run(nil, step, 3); err == nil {
		t.Fatal("expected no-convergence error")
	}
}

func TestWorkAccounting(t *testing.T) {
	c := testCluster(t, 2)
	step := func(w *WorkerCtx, s int, inbox []Message) bool {
		if s == 0 {
			w.AddWork(float64(w.ID()+1) * 10) // worker0: 10, worker1: 20
			w.Send(1-w.ID(), Message{Data: make([]float64, 4)})
			return false
		}
		return true
	}
	rep, err := c.Run(nil, step, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Work[0] != 10 || rep.Work[1] != 20 {
		t.Fatalf("per-worker work = %v", rep.Work)
	}
	if rep.CriticalWork != 20 {
		t.Fatalf("critical work = %v, want max of superstep = 20", rep.CriticalWork)
	}
	// Each message: 8 + 8*4 = 40 bytes, one per worker.
	if rep.MsgBytes[0] != 40 || rep.MsgBytes[1] != 40 {
		t.Fatalf("msg bytes = %v", rep.MsgBytes)
	}
	if rep.CriticalBytes != 40 {
		t.Fatalf("critical bytes = %v", rep.CriticalBytes)
	}
	if rep.SimCost(0.5) != 20+0.5*40 {
		t.Fatalf("simcost = %v", rep.SimCost(0.5))
	}
	if rep.TotalMsgBytes() != 80 {
		t.Fatalf("total bytes = %v", rep.TotalMsgBytes())
	}
}

func TestSelfSendFreeOnWire(t *testing.T) {
	c := testCluster(t, 2)
	step := func(w *WorkerCtx, s int, inbox []Message) bool {
		if s == 0 && w.ID() == 0 {
			w.Send(0, Message{Data: []float64{1}})
			return false
		}
		if s == 1 && w.ID() == 0 && len(inbox) != 1 {
			t.Errorf("self message not delivered")
		}
		return true
	}
	rep, err := c.Run(nil, step, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CriticalBytes != 0 {
		t.Fatalf("self sends must not count on the wire, got %v bytes", rep.CriticalBytes)
	}
	if rep.MsgCount[0] != 1 {
		t.Fatalf("self message should still be counted, got %d", rep.MsgCount[0])
	}
}

// Every arc of G must be responsible at exactly one worker, even with
// replicated arcs (edge-cut partitions replicate cut arcs).
func TestResponsibilityUnique(t *testing.T) {
	g := gen.ErdosRenyi(150, 4, true, 29)
	assign := make([]int, g.NumVertices())
	for v := range assign {
		assign[v] = (v * 7) % 4
	}
	p, err := partition.FromVertexAssignment(g, assign, 4)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCluster(p)
	g.Edges(func(u, v graph.VertexID) bool {
		owners := 0
		for i := 0; i < 4; i++ {
			if c.Worker(i).Responsible(u, v) {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("arc (%d,%d) responsible at %d workers", u, v, owners)
		}
		return true
	})
}

func TestHarvestSamples(t *testing.T) {
	c := testCluster(t, 2)
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
	if _, err := c.Run(nil, step, 2); err != nil {
		t.Fatal(err)
	}
	comp, comm := c.HarvestSamples()
	if len(comp) == 0 || len(comm) == 0 {
		t.Fatalf("harvest empty: %d comp, %d comm", len(comp), len(comm))
	}
	for _, s := range comp {
		if s.T <= 0 {
			t.Fatal("non-positive computation sample")
		}
	}
	for _, s := range comm {
		if s.X[4] < 1 { // Repl index
			t.Fatal("communication sample from non-replicated vertex")
		}
	}
}

func TestHarvestWithoutRecording(t *testing.T) {
	c := testCluster(t, 2)
	if comp, comm := c.HarvestSamples(); comp != nil || comm != nil {
		t.Fatal("harvest without recording should be empty")
	}
}
