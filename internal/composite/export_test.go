package composite

import "adp/internal/graph"

// CoreArcs returns |Ci| in arcs for fragment i: the arcs of partition
// 0's fragment i that every other partition's fragment i holds too.
func (c *Composite) CoreArcs(i int) int {
	n := 0
	for _, key := range c.parts[0].Fragment(i).AppendSortedArcKeys(nil) {
		if core, _, _ := c.Locate(i, graph.VertexID(key>>32), graph.VertexID(key)); core {
			n++
		}
	}
	return n
}

// Locate returns, for composite fragment i, whether the arc lies in
// the core and the list of partitions whose residual holds it
// (empty for core arcs, per the (ci, ri) index of Section 6.1).
func (c *Composite) Locate(i int, u, v graph.VertexID) (core bool, residuals []int, present bool) {
	for j, p := range c.parts {
		if p.Fragment(i).HasArc(u, v) {
			residuals = append(residuals, j)
		}
	}
	if len(residuals) == c.k {
		return true, nil, true
	}
	return false, residuals, len(residuals) > 0
}
