package composite

import "adp/internal/graph"

// CoreArcs returns |Ci| in arcs for fragment i.
func (c *Composite) CoreArcs(i int) int { return c.coreArcs[i] }

// Locate returns, for composite fragment i, whether the arc lies in
// the core and the list of partitions whose residual holds it
// (empty for core arcs, per the (ci, ri) index of Section 6.1).
func (c *Composite) Locate(i int, u, v graph.VertexID) (core bool, residuals []int, present bool) {
	e := c.entry(i, arcKey(u, v))
	if e == 0 {
		return false, nil, false
	}
	if e == c.full() {
		return true, nil, true
	}
	for j := 0; j < c.k; j++ {
		if e&(1<<uint(j)) != 0 {
			residuals = append(residuals, j)
		}
	}
	return false, residuals, true
}
