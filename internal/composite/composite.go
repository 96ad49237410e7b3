// Package composite implements Section 6 of the paper: composite
// partitions HP(n,k) — a compact representation of k per-algorithm
// hybrid partitions sharing a per-fragment core Ci — and the composite
// partitioners ME2H and MV2H that build one from an edge-cut or a
// vertex-cut for a batch of algorithms A1..Ak at once.
package composite

import (
	"fmt"
	"math/bits"
	"slices"

	"adp/internal/costmodel"
	"adp/internal/graph"
	"adp/internal/partition"
	"adp/internal/pool"
)

// indexEntry is the per-arc coherence index of Section 6.1 inside one
// composite fragment: a bitset over the k partitions (k ≤ 32) naming
// those whose fragment holds the arc. All k bits set means the arc
// sits in the fragment's core; otherwise the bits name the residual
// fragments F̂ji that hold it. Zero describes no stored arc, so the
// index overlay uses it as the tombstone.
type indexEntry uint32

// fragIndex is the coherence index of one composite fragment as of its
// last fold: arc keys in ascending order with their entries alongside.
// Immutable once built; CloneCOW siblings share it by pointer.
type fragIndex struct {
	keys    []uint64
	entries []indexEntry
}

// fold returns the index with the overlay's entries applied, by linear
// merge: only the overlay's keys are sorted, untouched runs are copied
// whole and tombstoned keys are left out.
func (b *fragIndex) fold(over map[uint64]indexEntry) *fragIndex {
	if len(over) == 0 {
		return b
	}
	changed := make([]uint64, 0, len(over))
	for k := range over {
		changed = append(changed, k)
	}
	slices.Sort(changed)
	out := &fragIndex{
		keys:    make([]uint64, 0, len(b.keys)+len(changed)),
		entries: make([]indexEntry, 0, len(b.keys)+len(changed)),
	}
	keys, entries := b.keys, b.entries
	for _, k := range changed {
		n, found := slices.BinarySearch(keys, k)
		out.keys = append(out.keys, keys[:n]...)
		out.entries = append(out.entries, entries[:n]...)
		if found {
			n++
		}
		keys, entries = keys[n:], entries[n:]
		if e := over[k]; e != 0 {
			out.keys = append(out.keys, k)
			out.entries = append(out.entries, e)
		}
	}
	out.keys = append(out.keys, keys...)
	out.entries = append(out.entries, entries...)
	return out
}

// Composite is a composite partition HP(n,k) =
// {HP1(n), ..., HPk(n)}: each fragment F^j_i is stored as the shared
// core Ci plus the residual F̂ji.
type Composite struct {
	g     *graph.Graph
	n, k  int
	parts []*partition.Partition
	// coreArcs[i] counts |Ci| (in arcs); the explicit arc sets live in
	// the coherence index.
	coreArcs []int
	// index[i] maps arc key -> placement inside composite fragment i, as
	// of the last fold. Never written once built: two composites hold
	// the same pointer exactly when they share that fragment's index,
	// which is what ShareStats counts.
	index []*fragIndex
	// over[i] holds the entries InsertEdge/DeleteEdge wrote since the
	// last fold (nil until the first); CloneCOW folds it into a new
	// index[i]. Reads probe it before index[i].
	over []map[uint64]indexEntry
}

func arcKey(u, v graph.VertexID) uint64 { return uint64(u)<<32 | uint64(v) }

// New assembles a composite from k individual partitions of the same
// graph with the same fragment count, computing cores and the
// coherence index.
func New(g *graph.Graph, parts []*partition.Partition) (*Composite, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("composite: no partitions")
	}
	if len(parts) > 32 {
		return nil, fmt.Errorf("composite: at most 32 partitions supported, got %d", len(parts))
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
	c := &Composite{g: g, n: n, k: len(parts), parts: parts}
	c.rebuildIndex()
	return c, nil
}

// full is the entry of a core arc: every partition holds it.
func (c *Composite) full() indexEntry { return indexEntry(1<<uint(c.k) - 1) }

// rebuildIndex recomputes cores and the coherence index from the
// individual partitions. Each fragment's k sorted arc-key lists are
// k-way merged, which emits every unique arc once, in key order, with
// its entry already complete — so the index arrays are appended to
// directly and nothing is hashed.
func (c *Composite) rebuildIndex() {
	c.coreArcs = make([]int, c.n)
	c.index = make([]*fragIndex, c.n)
	c.over = make([]map[uint64]indexEntry, c.n)
	full := c.full()
	lists := make([][]uint64, c.k)
	pos := make([]int, c.k)
	for i := 0; i < c.n; i++ {
		// Every arc is in at least one list, so the longest list is a
		// lower bound on the unique count and a good first capacity.
		longest := 0
		for j, p := range c.parts {
			lists[j] = p.Fragment(i).AppendSortedArcKeys(lists[j][:0])
			pos[j] = 0
			longest = max(longest, len(lists[j]))
		}
		idx := &fragIndex{keys: make([]uint64, 0, longest), entries: make([]indexEntry, 0, longest)}
		for {
			min, any := ^uint64(0), false
			for j := 0; j < c.k; j++ {
				if pos[j] < len(lists[j]) {
					if k := lists[j][pos[j]]; !any || k < min {
						min, any = k, true
					}
				}
			}
			if !any {
				break
			}
			var e indexEntry
			for j := 0; j < c.k; j++ {
				if pos[j] < len(lists[j]) && lists[j][pos[j]] == min {
					e |= 1 << uint(j)
					pos[j]++
				}
			}
			if e == full {
				c.coreArcs[i]++
			}
			idx.keys = append(idx.keys, min)
			idx.entries = append(idx.entries, e)
		}
		c.index[i] = idx
	}
}

// entry returns the index entry of the arc key in composite fragment
// i, zero when the fragment does not hold the arc.
func (c *Composite) entry(i int, key uint64) indexEntry {
	if e, ok := c.over[i][key]; ok {
		return e
	}
	if x, ok := slices.BinarySearch(c.index[i].keys, key); ok {
		return c.index[i].entries[x]
	}
	return 0
}

// setEntry records the arc key's new entry in fragment i's overlay;
// zero removes the arc.
func (c *Composite) setEntry(i int, key uint64, e indexEntry) {
	if c.over[i] == nil {
		c.over[i] = map[uint64]indexEntry{}
	}
	c.over[i][key] = e
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

// CoreArcs returns |Ci| in arcs for fragment i.
func (c *Composite) CoreArcs(i int) int { return c.coreArcs[i] }

// StorageArcs returns the composite storage cost
// Σ_i (|Ci| + Σ_j |F̂ji|): arcs in a core are stored once regardless
// of how many partitions share them.
func (c *Composite) StorageArcs() int {
	total, full := 0, c.full()
	for i := 0; i < c.n; i++ {
		total += c.coreArcs[i]
		for _, e := range c.index[i].fold(c.over[i]).entries {
			if e != full {
				total += bits.OnesCount32(uint32(e))
			}
		}
	}
	return total
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

// DeleteEdge deletes the edge coherently from every bundled partition
// using the index to locate copies, then updates the index. For
// undirected graphs both arcs go — independently, because a vertex- or
// edge-cut partition may store (u,v) and (v,u) in different fragments
// (each arc routes by its own source), so the two keys carry their own
// index entries. It reports whether any copy existed.
func (c *Composite) DeleteEdge(u, v graph.VertexID) bool {
	found := c.deleteArc(u, v)
	if c.g.Undirected() && u != v {
		if c.deleteArc(v, u) {
			found = true
		}
	}
	return found
}

// deleteArc removes the single arc key (u,v): every partition copy in
// every fragment whose index holds the key, the key's index entries,
// and its core count contributions.
func (c *Composite) deleteArc(u, v graph.VertexID) bool {
	found := false
	for i := 0; i < c.n; i++ {
		e := c.entry(i, arcKey(u, v))
		if e == 0 {
			continue
		}
		found = true
		for j := 0; j < c.k; j++ {
			if e&(1<<uint(j)) != 0 {
				c.parts[j].RemoveArc(i, u, v)
			}
		}
		if e == c.full() {
			c.coreArcs[i]--
		}
		c.setEntry(i, arcKey(u, v), 0)
	}
	return found
}

// InsertEdge inserts the edge into every bundled partition; dest[j]
// names the target fragment for partition j (the edge "carries its
// target fragments", Section 6.1). When all destinations agree the
// arc lands in the core and is indexed once.
func (c *Composite) InsertEdge(u, v graph.VertexID, dest []int) error {
	if len(dest) != c.k {
		return fmt.Errorf("composite: %d destinations for %d partitions", len(dest), c.k)
	}
	for j, d := range dest {
		if d < 0 || d >= c.n {
			return fmt.Errorf("composite: destination %d out of range", d)
		}
		c.parts[j].AddEdge(d, u, v)
	}
	// Each destination fragment gains the arc for the partitions routed
	// there. A set that fills up — at once when all destinations agree,
	// or across inserts — IS the core case (every partition holds the
	// arc in this fragment), as rebuildIndex classifies it on recovery.
	full := c.full()
	stamp := func(key uint64) {
		for j, d := range dest {
			e := c.entry(d, key)
			if ne := e | 1<<uint(j); ne != e {
				if ne == full {
					c.coreArcs[d]++
				}
				c.setEntry(d, key, ne)
			}
		}
	}
	stamp(arcKey(u, v))
	if c.g.Undirected() {
		stamp(arcKey(v, u))
	}
	return nil
}

// Clone returns a deep copy sharing only the immutable graph: every
// bundled partition is cloned (mutation order is preserved, so a
// clone's adjacency is bitwise the original's) and the coherence index
// is copied out whole into the clone's overlay, over an empty base.
// It is the oracle the copy-on-write tests compare CloneCOW against.
func (c *Composite) Clone() *Composite {
	out := &Composite{
		g: c.g, n: c.n, k: c.k,
		parts:    make([]*partition.Partition, c.k),
		coreArcs: slices.Clone(c.coreArcs),
		index:    make([]*fragIndex, c.n),
		over:     make([]map[uint64]indexEntry, c.n),
	}
	for j, p := range c.parts {
		out.parts[j] = p.Clone()
	}
	for i := range c.index {
		idx := c.index[i].fold(c.over[i])
		out.index[i] = &fragIndex{}
		out.over[i] = make(map[uint64]indexEntry, len(idx.keys))
		for x, k := range idx.keys {
			out.over[i][k] = idx.entries[x]
		}
	}
	return out
}

// CloneCOW returns a structurally-sharing snapshot of the composite:
// every bundled partition is cloned through Partition.CloneCOW (shared
// immutable compiled fragments, copied spines), the index overlays
// written since the last cut are folded into new index arrays, and
// every fragment's index is then shared by pointer, so a cut costs one
// linear merge per touched fragment instead of O(graph). The index folds,
// like each partition's fragment folds, run as a fan-out on
// pool.Default() and write only their own fragment's slots. The serving
// plane publishes epochs through it; Clone remains the deep-copy oracle.
func (c *Composite) CloneCOW() *Composite {
	// dirty lists the folds as (partition, fragment) pairs; partition k
	// stands for the coherence index.
	var dirty [][2]int
	for i := 0; i < c.n; i++ {
		for j, p := range c.parts {
			if !p.Fragment(i).Compiled() {
				dirty = append(dirty, [2]int{j, i})
			}
		}
		if len(c.over[i]) > 0 {
			dirty = append(dirty, [2]int{c.k, i})
		}
	}
	pool.Default().RunChunks(len(dirty), 1, func(x, _ int) {
		j, i := dirty[x][0], dirty[x][1]
		if j < c.k {
			c.parts[j].CompileFragment(i)
			return
		}
		c.index[i], c.over[i] = c.index[i].fold(c.over[i]), nil
	})
	out := &Composite{
		g: c.g, n: c.n, k: c.k,
		parts:    make([]*partition.Partition, c.k),
		coreArcs: slices.Clone(c.coreArcs),
		index:    slices.Clone(c.index),
		over:     make([]map[uint64]indexEntry, c.n),
	}
	for j, p := range c.parts {
		out.parts[j] = p.CloneCOW()
	}
	return out
}

// ShareStats describes how much of c's storage is shared with prev
// (typically the previous epoch's composite): fragments and per-fragment
// indexes that are the same objects cost no marginal memory; owned ones
// are summed at approximate resident bytes. prev == nil counts everything
// as owned — the full materialized size of one epoch.
type ShareStats struct {
	SharedFragments, OwnedFragments int
	SharedIndexMaps, OwnedIndexMaps int
	OwnedBytes                      int64
}

// indexEntryBytes: an 8-byte key and a 4-byte indexEntry.
const indexEntryBytes = 12

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
	for i := 0; i < c.n; i++ {
		if prev != nil && i < prev.n && c.index[i] == prev.index[i] {
			st.SharedIndexMaps++
		} else {
			st.OwnedIndexMaps++
			st.OwnedBytes += int64(len(c.index[i].keys)) * indexEntryBytes
		}
	}
	return st
}

// Validate checks every bundled partition plus index consistency.
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

// ValidateIndex checks that the coherence index agrees with the
// bundled partitions' contents.
func (c *Composite) ValidateIndex() error {
	// The index must agree with the partitions.
	for i := 0; i < c.n; i++ {
		for j, p := range c.parts {
			f := p.Fragment(i)
			count := 0
			f.Vertices(func(v graph.VertexID, adj *partition.Adj) {
				for _, w := range adj.Out {
					if c.entry(i, arcKey(v, w))&(1<<uint(j)) == 0 {
						count++
					}
				}
			})
			if count > 0 {
				return fmt.Errorf("composite: index misses %d arcs of partition %d fragment %d", count, j, i)
			}
		}
	}
	return nil
}

// EqualState reports whether o holds exactly the same composite state:
// same shape, per-partition placement (partition.EqualPlacement), core
// sizes, and per-arc coherence index entries. Nil on equality, an
// error naming the first divergence otherwise.
func (c *Composite) EqualState(o *Composite) error {
	if c.k != o.k || c.n != o.n {
		return fmt.Errorf("composite: shape (n=%d,k=%d) vs (n=%d,k=%d)", c.n, c.k, o.n, o.k)
	}
	for j := range c.parts {
		if err := c.parts[j].EqualPlacement(o.parts[j]); err != nil {
			return fmt.Errorf("composite: partition %d: %w", j, err)
		}
	}
	for i := 0; i < c.n; i++ {
		if c.coreArcs[i] != o.coreArcs[i] {
			return fmt.Errorf("composite: core of fragment %d is %d arcs vs %d", i, c.coreArcs[i], o.coreArcs[i])
		}
		ci, oi := c.index[i].fold(c.over[i]), o.index[i].fold(o.over[i])
		if len(ci.keys) != len(oi.keys) {
			return fmt.Errorf("composite: index of fragment %d has %d arcs vs %d", i, len(ci.keys), len(oi.keys))
		}
		for x, k := range ci.keys {
			if oi.keys[x] != k || oi.entries[x] != ci.entries[x] {
				k = min(k, oi.keys[x])
				return fmt.Errorf("composite: index of fragment %d diverges at arc (%d,%d)", i, uint32(k>>32), uint32(k))
			}
		}
	}
	return nil
}
