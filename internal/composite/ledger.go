package composite

import (
	"adp/internal/costmodel"
	"adp/internal/graph"
)

// ledger is a target's state during the decision sweep: what a tracker
// over the partition Init and GetDest have placed so far would hold,
// float for float, without that partition being built. For every
// (vertex, fragment) it keeps whether the fragment holds a copy, the
// copy's local in/out degree and the Comp contribution the tracker last
// stored for it; per fragment, the tracked Comp. refresh replays
// Tracker.Refresh and takes every value from the tracker's own
// HypotheticalComp, so no cost formula is derived twice.
type ledger struct {
	n     int
	cells []cell // cells[v*n+x] is v's copy in fragment x
	comp  []float64
}

// cell is one (vertex, fragment) slot of a ledger; in < 0 means the
// fragment holds no copy.
type cell struct {
	in, out int32
	comp    float64
}

func newLedger(numVertices, n int) ledger {
	l := ledger{n: n, cells: make([]cell, numVertices*n), comp: make([]float64, n)}
	for c := range l.cells {
		l.cells[c].in = -1
	}
	return l
}

// at returns v's slot in fragment x.
func (l *ledger) at(x int, v graph.VertexID) *cell { return &l.cells[int(v)*l.n+x] }

// addArc counts the arc (u, w), new to fragment x, at both endpoints.
func (l *ledger) addArc(x int, u, w graph.VertexID) {
	cu := l.at(x, u)
	cu.in = max(cu.in, 0)
	cu.out++
	cw := l.at(x, w)
	cw.in = max(cw.in, 0) + 1
}

// refresh replays Tracker.Refresh(v): v's copies are classified by
// CompleteFragment's rule (the owner's copy if complete, else the
// lowest complete one) and, fragment by fragment, the stored
// contribution is subtracted from comp and the recomputed one stored
// and added, zero meaning none.
func (l *ledger) refresh(tr *costmodel.Tracker, g *graph.Graph, v graph.VertexID, owner int) {
	cs := l.cells[int(v)*l.n : (int(v)+1)*l.n]
	deg := int32(g.InDegree(v) + g.OutDegree(v))
	cf, copies := -1, 0
	for x := range cs {
		if c := &cs[x]; c.in >= 0 {
			copies++
			if c.in+c.out == deg && (cf < 0 || x == owner) {
				cf = x
			}
		}
	}
	for x := range cs {
		c := &cs[x]
		var nc float64
		if c.in >= 0 && (cf == x || cf < 0) { // dummies compute nothing
			nc = tr.HypotheticalComp(v, int(c.in), int(c.out), copies-1, cf != x)
		}
		if c.comp != 0 {
			l.comp[x] -= c.comp
		}
		c.comp = 0
		if nc != 0 {
			c.comp = nc
			l.comp[x] += nc
		}
	}
}

// forget drops every stored contribution and fragment total, the
// empty slabs a tracker rebuild starts from; refreshing every vertex in
// ascending order then re-evaluates the partition as Rebuild does.
func (l *ledger) forget() {
	clear(l.comp)
	for c := range l.cells {
		l.cells[c].comp = 0
	}
}

// argmin is Tracker.ArgminComp: the fragment with the lowest Comp, the
// lowest id among ties.
func (l *ledger) argmin() int {
	best := 0
	for i := 1; i < len(l.comp); i++ {
		if l.comp[i] < l.comp[best] {
			best = i
		}
	}
	return best
}

// addArc records the arc (u, w) as new to fragment x of t.
func (t *target) addArc(x int, u, w graph.VertexID) {
	t.led.addArc(x, u, w)
	t.pb.AddArc(x, u, w)
}

// addVertex gives fragment x of t an edge-less copy of v unless it
// holds one.
func (t *target) addVertex(x int, v graph.VertexID) {
	if c := t.led.at(x, v); c.in < 0 {
		c.in = 0
		t.pb.AddVertex(x, v)
	}
}
