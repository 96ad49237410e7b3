package main

import (
	"bufio"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// The ingest workload: someone loads a big edge list. Only the graph
// loaders, the streaming partitioner and the flat partition constructor
// run, on arrays that do not fit the L2 cache, in the two formats
// ROADMAP item 5 keeps (text and flat).

const ingestPassesPerSecond = 0.9 // at HEAD on the reference box, full profile

type ingestOut struct {
	wall, scan       time.Duration
	quality, storage float64 // quality_ratio and storage_ratio of the pass
	part             *Partition
}

func fileSize(path string) (int64, error) {
	info, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

// ingestPass is text edge list -> streaming parse + streaming Fennel ->
// flat partition -> flat binary file -> mmap + scan of every forward
// star.
func (r *run) ingestPass(src *Graph, text, flat string, op int) (*ingestOut, error) {
	out := &ingestOut{}
	root := r.tr.start("harness", "pass", -1, op)
	t0 := time.Now()

	f, err := os.Open(text)
	if err != nil {
		return nil, err
	}
	var g *Graph
	var finish func() (*Partition, error)
	r.tr.do("graph", "load", root, op, func() { g, finish, err = loadStreaming(bufio.NewReaderSize(f, 1<<20)) })
	f.Close()
	if err != nil {
		return nil, err
	}
	var p *Partition
	r.tr.do("partitioner", "stream_partition", root, op, func() { p, err = finish() })
	if err != nil {
		return nil, err
	}
	r.tr.do("graph", "write_flat", root, op, func() {
		var w *os.File
		if w, err = os.Create(flat); err != nil {
			return
		}
		bw := bufio.NewWriterSize(w, 1<<20)
		if err = writeFlatBinary(bw, g); err == nil {
			err = bw.Flush()
		}
		if cerr := w.Close(); err == nil {
			err = cerr
		}
	})
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	var mg *Graph
	var mapping *Mapping
	var scanned int64
	r.tr.do("graph", "mmap_scan", root, op, func() {
		if mg, mapping, err = mapFlatBinary(flat); err != nil {
			return
		}
		var acc uint32
		for v := 0; v < numVertices(mg); v++ {
			for _, u := range outNeighbors(mg, v) {
				acc += u
				scanned++
			}
		}
		sink = acc
	})
	if err != nil {
		return nil, err
	}
	out.scan = time.Since(t1)
	out.wall = time.Since(t0)
	r.tr.stop(root)

	// Oracles, outside the pass's timing: the loaded graph is the
	// generated one, the mapped graph is the loaded one.
	r.check(numVertices(g) == numVertices(src) && numArcs(g) == numArcs(src),
		"loaded %d vertices / %d arcs, generated %d / %d", numVertices(g), numArcs(g), numVertices(src), numArcs(src))
	same := numArcs(mg) == numArcs(g) && scanned == numArcs(g)
	rng := rand.New(rand.NewSource(r.cfg.seed))
	for i := 0; i < 256 && same; i++ {
		v := rng.Intn(numVertices(g))
		same = slices.Equal(outNeighbors(mg, v), outNeighbors(g, v)) && slices.Equal(outNeighbors(g, v), outNeighbors(src, v))
	}
	r.check(same, "mapped flat graph differs from the loaded one")
	if err := mapping.Close(); err != nil {
		return nil, err
	}
	out.part = p
	textBytes, err := fileSize(text)
	if err != nil {
		return nil, err
	}
	flatBytes, err := fileSize(flat)
	if err != nil {
		return nil, err
	}
	r.exact("ingest vertices", float64(numVertices(g)))
	r.exact("ingest arcs", float64(numArcs(g)))
	r.exact("graph.text_bytes_per_edge", float64(textBytes)/float64(numArcs(g)))
	r.exact("graph.flat_bytes_per_edge", float64(flatBytes)/float64(numArcs(g)))
	out.quality, out.storage = cutArcShare(g, p), float64(storageArcs(p))/float64(numArcs(g))
	r.exact("ingest quality_ratio", out.quality)
	r.exact("ingest storage_ratio", out.storage)
	return out, nil
}

// sink keeps the scan's result alive.
var sink uint32

// ingest is the workload: the generated graph is the oracle, its text
// edge list the input of every pass.
type ingest struct {
	src        *Graph
	text, flat string
	warm       *Partition // the warm-up pass's partition
}

func (w *ingest) setUp(r *run) error {
	w.text, w.flat = filepath.Join(r.tmp, "edges.txt"), filepath.Join(r.tmp, "graph.flat")
	w.src = genPowerLawBig(r.cfg.prof.nBig, r.cfg.seed)
	f, err := os.Create(w.text)
	if err != nil {
		return err
	}
	if err := writeEdgeList(f, w.src); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	out, err := r.ingestPass(w.src, w.text, w.flat, -1) // warm-up
	if err != nil {
		return err
	}
	w.warm = out.part
	return nil
}

func (w *ingest) tearDown() error {
	if err := os.Remove(w.text); err != nil {
		return err
	}
	return os.Remove(w.flat)
}

func (w *ingest) measure(r *run) error {
	if r.round == 0 {
		// Validating the partition costs as much as a pass, so only the
		// run's first partition is validated; every later pass must
		// repeat that pass's figures exactly.
		err := validatePartition(w.warm)
		r.check(err == nil, "stream partition: %v", err)
	}
	w.warm = nil
	total := 0.0
	for i := 0; i < r.cfg.opsPerRound(ingestPassesPerSecond); i++ {
		// Each pass is one user's load: it starts from a collected heap,
		// so peak RSS does not depend on when the collector last ran.
		runtime.GC()
		out, err := r.ingestPass(w.src, w.text, w.flat, i)
		if err != nil {
			return err
		}
		total += sec(out.wall)
		r.sample("op", sec(out.wall))
		r.sample("aux", sec(out.scan))
		r.sample("quality_ratio", out.quality)
		r.sample("storage_ratio", out.storage)
	}
	r.sample("op_wall", total)
	return nil
}

func (w *ingest) layers(r *run) error {
	count, perOp := r.spanReport()
	for _, name := range []string{"graph.load", "graph.write_flat", "graph.mmap_scan", "partitioner.stream_partition"} {
		r.set(name+"_s", perOp(name), count)
	}
	r.set("graph.load_medges_per_s", float64(numArcs(w.src))/1e6/perOp("graph.load"), count)
	return nil
}
