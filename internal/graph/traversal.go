package graph

// ConnectedComponents labels each vertex with the smallest vertex id
// in its weakly connected component and returns the labels plus the
// number of components. Used both as the sequential WCC oracle and by
// generators.
func ConnectedComponents(g *Graph) ([]VertexID, int) {
	n := g.NumVertices()
	label := make([]VertexID, n)
	for i := range label {
		label[i] = VertexID(n) // sentinel: unvisited
	}
	count := 0
	queue := make([]VertexID, 0, 64)
	for s := 0; s < n; s++ {
		if label[s] != VertexID(n) {
			continue
		}
		count++
		root := VertexID(s)
		label[s] = root
		queue = append(queue[:0], root)
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, w := range g.OutNeighbors(v) {
				if label[w] == VertexID(n) {
					label[w] = root
					queue = append(queue, w)
				}
			}
			for _, w := range g.InNeighbors(v) {
				if label[w] == VertexID(n) {
					label[w] = root
					queue = append(queue, w)
				}
			}
		}
	}
	return label, count
}
