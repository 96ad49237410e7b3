// Package bench reproduces every table and figure of the paper's
// experimental study (Section 7) on the scaled-down substrate of this
// repository: Exp-1 (Fig 9a-j), Exp-2 (Table 4 / Fig 10a), Exp-3
// (Fig 9k), Exp-4 (Fig 10b + space), Exp-5 (Fig 9l), Exp-6 (Table 5),
// Table 3, and the appendix phase decomposition (Fig 11), plus the
// DESIGN.md ablations.
//
// "Execution time" columns report the engine's deterministic simulated
// parallel cost (compute critical path + weighted communication
// critical path, in work units); partitioning and training times are
// wall clock. EXPERIMENTS.md maps these numbers against the paper's.
package bench

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"

	"adp/internal/algorithms"
	"adp/internal/costmodel"
	"adp/internal/engine"
	"adp/internal/gen"
	"adp/internal/graph"
	"adp/internal/partition"
	"adp/internal/partitioner"
)

// Table is one reproduced table or figure, rendered as rows of text
// plus the raw values for programmatic checks.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	// Values mirrors Rows numerically where applicable (same shape,
	// NaN for text cells); assertions in tests use it.
	Values [][]float64
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	rows := append([][]string{t.Header}, t.Rows...)
	for _, r := range rows {
		for c, cell := range r {
			if c < len(widths) && len(cell) > widths[c] {
				widths[c] = len(cell)
			}
		}
	}
	for ri, r := range rows {
		var parts []string
		for c, cell := range r {
			parts = append(parts, pad(cell, widths[c]))
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
		if ri == 0 {
			total := len(parts) - 1
			for _, wd := range widths {
				total += wd + 2
			}
			fmt.Fprintln(w, strings.Repeat("-", total))
		}
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

func (t *Table) addRow(cells []string, values []float64) {
	t.Rows = append(t.Rows, cells)
	t.Values = append(t.Values, values)
}

// Dataset names used throughout the experiments.
const (
	DSSocial  = "liveJournal*" // socialSmall stand-in
	DSTwitter = "Twitter*"     // twitterLike stand-in
	DSWeb     = "UKWeb*"       // webLike stand-in
	DSRoad    = "traffic*"     // roadLike stand-in
)

// genNames maps the dataset names to gen.Load's.
var genNames = map[string]string{DSSocial: "social", DSTwitter: "twitter", DSWeb: "web", DSRoad: "road"}

var datasetCache sync.Map // name -> *graph.Graph

// Dataset returns (and caches) the named stand-in graph. Suffix "-u"
// yields the symmetrised undirected variant used by TC and the
// mixed-workload batch.
func Dataset(name string) *graph.Graph {
	if g, ok := datasetCache.Load(name); ok {
		return g.(*graph.Graph)
	}
	short, ok := genNames[strings.TrimSuffix(name, "-u")]
	if !ok {
		panic("bench: unknown dataset " + name)
	}
	g, err := gen.Load(short, strings.HasSuffix(name, "-u"))
	if err != nil {
		panic(err) // stand-ins are generated, never read
	}
	actual, _ := datasetCache.LoadOrStore(name, g)
	return actual.(*graph.Graph)
}

type partKey struct {
	dataset, partitioner string
	n                    int
}

var partCache sync.Map // partKey -> *partition.Partition

// basePartition returns (and caches) the baseline partition of a
// dataset; callers Clone before refining.
func basePartition(dataset, name string, n int) (*partition.Partition, error) {
	key := partKey{dataset, name, n}
	if p, ok := partCache.Load(key); ok {
		return p.(*partition.Partition), nil
	}
	spec, ok := partitioner.ByName(name)
	if !ok {
		return nil, fmt.Errorf("bench: unknown partitioner %q", name)
	}
	p, err := spec.Run(Dataset(dataset), n)
	if err != nil {
		return nil, err
	}
	actual, _ := partCache.LoadOrStore(key, p)
	return actual.(*partition.Partition), nil
}

// defaultOpts are the shared algorithm options. The paper filters CN
// hubs on Twitter (θ=300) purely to bound memory at 42M-vertex scale;
// our stand-ins are ~1000× smaller, so the filter is disabled and the
// quadratic hub workload of Example 1 is exercised in full — the
// workload hA(CN) balances.
func defaultOpts(dataset string) algorithms.Options {
	return algorithms.Options{SSSPSource: 1, PRIterations: 5}
}

var (
	benchOptsMu sync.Mutex
	benchOpts   engine.Options
)

// Configure sets the engine Options (the run context) applied to every
// engine run the experiments perform. The cmd layer wires -timeout
// through here.
func Configure(opts engine.Options) {
	benchOptsMu.Lock()
	benchOpts = opts
	benchOptsMu.Unlock()
}

// benchCtx is the configured run context (Background when unset); the
// experiment drivers poll it between grid cells so a timeout or Ctrl-C
// aborts between runs, and the engine aborts within one barrier.
func benchCtx() context.Context {
	benchOptsMu.Lock()
	defer benchOptsMu.Unlock()
	if benchOpts.Context != nil {
		return benchOpts.Context
	}
	return context.Background()
}

// runCost executes algo over p and returns the simulated parallel
// cost.
func runCost(p *partition.Partition, algo costmodel.Algo, opts algorithms.Options) (float64, error) {
	out, err := algorithms.Run(engine.NewCluster(p).Configure(engine.Options{Context: benchCtx()}), algo, opts)
	if err != nil {
		return 0, err
	}
	return out.Report.SimCost(engine.DefaultBytesWeight), nil
}

// algoDataset picks the right graph variant: TC needs the symmetrised
// graph.
func algoDataset(dataset string, algo costmodel.Algo) string {
	if algo == costmodel.TC {
		return dataset + "-u"
	}
	return dataset
}

// fmtF renders a float compactly.
func fmtF(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000:
		return fmt.Sprintf("%.3g", v)
	case v >= 1:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// Experiment is a registered reproduction target.
type Experiment struct {
	ID    string
	Title string
	Run   func() (*Table, error)
}

// Experiments lists every reproducible table/figure in paper order,
// then the serving-plane measurement.
func Experiments() []Experiment {
	return []Experiment{
		{"table3", "Partition metrics of Twitter* (Table 3)", Table3},
		{"fig9a", "CN execution vs n on liveJournal* (Fig 9a)", func() (*Table, error) { return Fig9Exec(costmodel.CN, DSSocial, "fig9a") }},
		{"fig9b", "CN execution vs n on Twitter* (Fig 9b)", func() (*Table, error) { return Fig9Exec(costmodel.CN, DSTwitter, "fig9b") }},
		{"fig9c", "TC execution vs n on liveJournal* (Fig 9c)", func() (*Table, error) { return Fig9Exec(costmodel.TC, DSSocial, "fig9c") }},
		{"fig9d", "TC execution vs n on Twitter* (Fig 9d)", func() (*Table, error) { return Fig9Exec(costmodel.TC, DSTwitter, "fig9d") }},
		{"fig9e", "WCC execution vs n on Twitter* (Fig 9e)", func() (*Table, error) { return Fig9Exec(costmodel.WCC, DSTwitter, "fig9e") }},
		{"fig9f", "WCC execution vs n on UKWeb* (Fig 9f)", func() (*Table, error) { return Fig9Exec(costmodel.WCC, DSWeb, "fig9f") }},
		{"fig9g", "PR execution vs n on Twitter* (Fig 9g)", func() (*Table, error) { return Fig9Exec(costmodel.PR, DSTwitter, "fig9g") }},
		{"fig9h", "PR execution vs n on UKWeb* (Fig 9h)", func() (*Table, error) { return Fig9Exec(costmodel.PR, DSWeb, "fig9h") }},
		{"fig9i", "SSSP execution vs n on Twitter* (Fig 9i)", func() (*Table, error) { return Fig9Exec(costmodel.SSSP, DSTwitter, "fig9i") }},
		{"fig9j", "SSSP execution vs n on traffic* (Fig 9j)", func() (*Table, error) { return Fig9Exec(costmodel.SSSP, DSRoad, "fig9j") }},
		{"fig9k", "Refinement share of partitioning time (Fig 9k / Exp-3)", Fig9K},
		{"fig9l", "Scalability with |G| (Fig 9l / Exp-5)", Fig9L},
		{"table4", "Batch runtime under composite partitions (Table 4 / Fig 10a)", Table4},
		{"fig10b", "Composite partitioning time (Fig 10b / Exp-4)", Fig10B},
		{"space", "Composite space saving (Exp-4)", SpaceTable},
		{"table5", "Learned cost models (Table 5 / Exp-6)", Table5},
		{"fig11", "Phase decomposition (Fig 11, appendix)", Fig11},
		{"seqcmp", "Monolithic reference vs partitioned execution (Exp-6 remark)", SeqCompare},
		{"gingersweep", "Ginger threshold sweep vs cost-driven refinement", GingerSweep},
		{"ablation", "Design-choice ablations (DESIGN.md)", Ablations},
	}
}

// ByID returns the registered experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
