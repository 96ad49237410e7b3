package partition

import (
	"fmt"

	"adp/internal/graph"
)

// EqualPlacement reports whether q places exactly what p places: same
// fragment count, identical per-fragment vertex and arc sets, and
// identical owner, master and weight maps. It returns nil on equality
// and an error naming the first divergence otherwise — the comparison
// the crash-recovery tests use to assert a reopened store is bitwise
// the state a clean prefix replay produces.
func (p *Partition) EqualPlacement(q *Partition) error {
	if p.NumFragments() != q.NumFragments() {
		return fmt.Errorf("partition: %d fragments vs %d", p.NumFragments(), q.NumFragments())
	}
	if len(p.master) != len(q.master) {
		return fmt.Errorf("partition: %d vertices vs %d", len(p.master), len(q.master))
	}
	for i := range p.frags {
		pk, qk := p.frags[i].AppendSortedArcKeys(nil), q.frags[i].AppendSortedArcKeys(nil)
		if len(pk) != len(qk) {
			return fmt.Errorf("partition: fragment %d holds %d arcs vs %d", i, len(pk), len(qk))
		}
		for x := range pk {
			if k := min(pk[x], qk[x]); pk[x] != qk[x] {
				return fmt.Errorf("partition: fragment %d arc (%d,%d) is in one partition only", i, uint32(k>>32), uint32(k))
			}
		}
		pv, qv := p.frags[i].SortedVertices(), q.frags[i].SortedVertices()
		if len(pv) != len(qv) {
			return fmt.Errorf("partition: fragment %d holds %d vertices vs %d", i, len(pv), len(qv))
		}
		for x := range pv {
			if pv[x] != qv[x] {
				return fmt.Errorf("partition: fragment %d vertex %d is in one partition only", i, min(pv[x], qv[x]))
			}
		}
	}
	for v := range p.master {
		if p.master[v] != q.master[v] {
			return fmt.Errorf("partition: master of vertex %d is %d vs %d", v, p.master[v], q.master[v])
		}
		if p.owner[v] != q.owner[v] {
			return fmt.Errorf("partition: owner of vertex %d is %d vs %d", v, p.owner[v], q.owner[v])
		}
		if p.VertexWeight(graph.VertexID(v)) != q.VertexWeight(graph.VertexID(v)) {
			return fmt.Errorf("partition: weight of vertex %d differs", v)
		}
	}
	return nil
}
