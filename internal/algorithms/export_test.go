package algorithms

import "adp/internal/engine"

// exchangeCarves sums, over c's workers, the lists the neighbour
// exchange of the algorithm c ran last has ever sorted or merged.
func exchangeCarves(c *engine.Cluster) int {
	n := 0
	for i := 0; i < c.Partition().NumFragments(); i++ {
		switch st := c.Worker(i).Scratch.(type) {
		case *cnState:
			n += st.exch.carves
		case *tcState:
			n += st.exch.carves
		}
	}
	return n
}

// sweepHeapCaps returns the capacity of every worker's WCC/SSSP sweep
// heap: the most entries it ever held at once.
func sweepHeapCaps(c *engine.Cluster) []int {
	caps := make([]int, c.Partition().NumFragments())
	for i := range caps {
		if st, ok := c.Worker(i).Scratch.(*propState); ok {
			caps[i] = cap(st.pq)
		}
	}
	return caps
}
