// Package composite implements Section 6 of the paper: composite
// partitions HP(n,k) — a compact representation of k per-algorithm
// hybrid partitions sharing a per-fragment core Ci — and the composite
// partitioners ME2H and MV2H that build one from an edge-cut or a
// vertex-cut for a batch of algorithms A1..Ak at once.
package composite

import (
	"fmt"
	"slices"

	"adp/internal/costmodel"
	"adp/internal/graph"
	"adp/internal/partition"
	"adp/internal/pool"
)

// Composite is a composite partition HP(n,k) =
// {HP1(n), ..., HPk(n)}: each fragment F^j_i is stored as the shared
// core Ci plus the residual F̂ji. The k partitions are the only state:
// the Section 6.1 edge index (which fragments of which partitions hold
// an arc) is read from each partition's own copies lists and sorted
// arc arrays, so cores and residuals are derived on demand.
type Composite struct {
	g     *graph.Graph
	n, k  int
	parts []*partition.Partition
	// frags is DeleteEdge's scratch copy of a Copies list.
	frags []int32
}

// New assembles a composite from k individual partitions of the same
// graph with the same fragment count.
func New(g *graph.Graph, parts []*partition.Partition) (*Composite, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("composite: no partitions")
	}
	if len(parts) > maxPartitions {
		return nil, fmt.Errorf("composite: at most %d partitions supported, got %d", maxPartitions, len(parts))
	}
	n := parts[0].NumFragments()
	for j, p := range parts {
		if p.Graph() != g {
			return nil, fmt.Errorf("composite: partition %d is over a different graph", j)
		}
		if p.NumFragments() != n {
			return nil, fmt.Errorf("composite: partition %d has %d fragments, want %d", j, p.NumFragments(), n)
		}
	}
	return &Composite{g: g, n: n, k: len(parts), parts: parts}, nil
}

// K returns the number of bundled partitions.
func (c *Composite) K() int { return c.k }

// N returns the fragment count.
func (c *Composite) N() int { return c.n }

// Partition returns the j-th individual hybrid partition HPj(n).
func (c *Composite) Partition(j int) *partition.Partition { return c.parts[j] }

// PartitionFor returns the index of the bundled partition algorithm a
// runs on: a's position in costmodel.Algos() modulo K — one to one for
// the five-algorithm batch, folded for smaller composites. An algorithm
// outside Algos() runs on partition 0.
func (c *Composite) PartitionFor(a costmodel.Algo) int {
	return max(slices.Index(costmodel.Algos(), a), 0) % c.k
}

// Partitions returns all bundled partitions.
func (c *Composite) Partitions() []*partition.Partition { return c.parts }

// StorageArcs returns the composite storage cost
// Σ_i (|Ci| + Σ_j |F̂ji|): arcs in a core are stored once regardless
// of how many partitions share them. Per fragment that is Σ_j |F^j_i|
// less (k-1)·|Ci|, with |Ci| counted by intersecting the k sorted
// arc-key lists.
func (c *Composite) StorageArcs() int {
	total := 0
	lists := make([][]uint64, c.k)
	for i := 0; i < c.n; i++ {
		for j, p := range c.parts {
			lists[j] = p.Fragment(i).AppendSortedArcKeys(lists[j][:0])
			total += len(lists[j])
		}
		total -= (c.k - 1) * coreSize(lists)
	}
	return total
}

// coreSize counts the keys present in every one of the ascending,
// duplicate-free lists.
func coreSize(lists [][]uint64) int {
	core := 0
	pos := make([]int, len(lists))
next:
	for _, key := range lists[0] {
		for j := 1; j < len(lists); j++ {
			l := lists[j]
			for pos[j] < len(l) && l[pos[j]] < key {
				pos[j]++
			}
			if pos[j] == len(l) {
				break next
			}
			if l[pos[j]] != key {
				continue next
			}
		}
		core++
	}
	return core
}

// SeparateStorageArcs returns what storing the k partitions separately
// would cost — the Exp-4 comparison baseline.
func (c *Composite) SeparateStorageArcs() int {
	total := 0
	for _, p := range c.parts {
		total += p.StorageArcs()
	}
	return total
}

// FC returns the composite replication ratio fc =
// StorageArcs / |E(G)| (Section 6.1).
func (c *Composite) FC() float64 {
	if c.g.NumEdges() == 0 {
		return 0
	}
	return float64(c.StorageArcs()) / float64(c.g.NumEdges())
}

// DeleteEdge deletes the edge coherently from every bundled partition.
// For undirected graphs both arcs go — independently, because a vertex-
// or edge-cut partition may store (u,v) and (v,u) in different
// fragments (each arc routes by its own source). It reports whether any
// copy existed, so an endpoint outside the graph finds none.
func (c *Composite) DeleteEdge(u, v graph.VertexID) bool {
	if n := uint64(c.g.NumVertices()); uint64(u) >= n || uint64(v) >= n {
		return false
	}
	found := c.deleteArc(u, v)
	if c.g.Undirected() && u != v {
		if c.deleteArc(v, u) {
			found = true
		}
	}
	return found
}

// deleteArc removes the arc (u,v) from every fragment of every
// partition that holds it. Only fragments holding a copy of u can, and
// the partition's copies list names them; the list is copied first
// because removing the arc may drop u's copy from it.
func (c *Composite) deleteArc(u, v graph.VertexID) bool {
	found := false
	for _, p := range c.parts {
		c.frags = append(c.frags[:0], p.Copies(u)...)
		for _, i := range c.frags {
			if p.RemoveArc(int(i), u, v) {
				found = true
			}
		}
	}
	return found
}

// InsertEdge inserts the edge into every bundled partition; dest[j]
// names the target fragment for partition j (the edge "carries its
// target fragments", Section 6.1). When all destinations agree the
// arc lands in the core.
func (c *Composite) InsertEdge(u, v graph.VertexID, dest []int) error {
	if len(dest) != c.k {
		return fmt.Errorf("composite: %d destinations for %d partitions", len(dest), c.k)
	}
	for _, d := range dest {
		if d < 0 || d >= c.n {
			return fmt.Errorf("composite: destination %d out of range", d)
		}
	}
	for j, d := range dest {
		c.parts[j].AddEdge(d, u, v)
	}
	return nil
}

// Clone returns a deep copy sharing only the immutable graph: every
// bundled partition is cloned (mutation order is preserved, so a
// clone's adjacency is bitwise the original's). It is the oracle the
// copy-on-write tests compare CloneCOW against.
func (c *Composite) Clone() *Composite {
	out := &Composite{g: c.g, n: c.n, k: c.k, parts: make([]*partition.Partition, c.k)}
	for j, p := range c.parts {
		out.parts[j] = p.Clone()
	}
	return out
}

// CloneCOW returns a structurally-sharing snapshot of the composite:
// every bundled partition is cloned through Partition.CloneCOW (shared
// immutable compiled fragments, copied spines), so a cut costs one fold
// per touched fragment instead of O(graph). The folds run as a fan-out
// on pool.Default() and each writes only its own fragment; the spines
// are then copied as a second fan-out, one partition each. The serving
// plane publishes epochs through it; Clone remains the deep-copy oracle.
func (c *Composite) CloneCOW() *Composite {
	// dirty lists the folds as (partition, fragment) pairs.
	var dirty [][2]int
	for i := 0; i < c.n; i++ {
		for j, p := range c.parts {
			if !p.Fragment(i).Compiled() {
				dirty = append(dirty, [2]int{j, i})
			}
		}
	}
	pool.Default().RunChunks(len(dirty), 1, func(x, _ int) {
		c.parts[dirty[x][0]].CompileFragment(dirty[x][1])
	})
	out := &Composite{g: c.g, n: c.n, k: c.k, parts: make([]*partition.Partition, c.k)}
	pool.Default().Run(c.k, func(j int) { out.parts[j] = c.parts[j].CloneCOW() })
	return out
}

// ShareStats describes how much of c's storage is shared with prev
// (typically the previous epoch's composite): fragments that are the
// same objects cost no marginal memory; owned ones are summed at
// approximate resident bytes. prev == nil counts everything as owned —
// the full materialized size of one epoch.
type ShareStats struct {
	SharedFragments, OwnedFragments int
	OwnedBytes                      int64
}

// ShareStats computes the sharing breakdown of c against prev.
func (c *Composite) ShareStats(prev *Composite) ShareStats {
	var st ShareStats
	for j, p := range c.parts {
		var pp *partition.Partition
		if prev != nil && j < len(prev.parts) {
			pp = prev.parts[j]
		}
		sh, ow, ob := p.ShareStats(pp)
		st.SharedFragments += sh
		st.OwnedFragments += ow
		st.OwnedBytes += ob
	}
	return st
}

// Validate checks every bundled partition plus their coherence.
// It assumes the composite still matches the graph it was built from;
// after coherent updates (InsertEdge/DeleteEdge) use ValidateIndex,
// since the immutable Graph no longer reflects the edits.
func (c *Composite) Validate() error {
	for j, p := range c.parts {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("composite partition %d: %w", j, err)
		}
	}
	return c.ValidateIndex()
}

// ValidateIndex checks coherence, the invariant the Section 6.1 edge
// index exists to keep: every bundled partition holds the same set of
// arcs (wherever it places them).
func (c *Composite) ValidateIndex() error {
	var want, got []uint64
	for j, p := range c.parts {
		got = slices.Grow(got[:0], p.StorageArcs())
		for i := 0; i < c.n; i++ {
			got = p.Fragment(i).AppendSortedArcKeys(got)
		}
		slices.Sort(got)
		got = slices.Compact(got)
		if j == 0 {
			want, got = got, nil
			continue
		}
		for x := 0; x < len(want) || x < len(got); x++ {
			if x == len(got) || x < len(want) && want[x] < got[x] {
				return fmt.Errorf("composite: partition %d lacks arc (%d,%d) that partition 0 holds", j, uint32(want[x]>>32), uint32(want[x]))
			}
			if x == len(want) || got[x] < want[x] {
				return fmt.Errorf("composite: partition %d holds arc (%d,%d) that partition 0 lacks", j, uint32(got[x]>>32), uint32(got[x]))
			}
		}
	}
	return nil
}

// EqualState reports whether o holds exactly the same composite state:
// same shape and per-partition placement (partition.EqualPlacement),
// which fixes every core and residual. Nil on equality, an error naming
// the first divergence otherwise.
func (c *Composite) EqualState(o *Composite) error {
	if c.k != o.k || c.n != o.n {
		return fmt.Errorf("composite: shape (n=%d,k=%d) vs (n=%d,k=%d)", c.n, c.k, o.n, o.k)
	}
	for j := range c.parts {
		if err := c.parts[j].EqualPlacement(o.parts[j]); err != nil {
			return fmt.Errorf("composite: partition %d: %w", j, err)
		}
	}
	return nil
}
