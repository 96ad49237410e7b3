package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// ---- declaration: BENCHMARK.json is the one list of workloads and metrics ----

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type declaration struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

// loadDeclaration reads BENCHMARK.json from the working directory (the
// root of the checkout, where run.sh starts the program) or from its
// parent (go run . / go test inside benchmark/).
func loadDeclaration() (*declaration, error) {
	var firstErr error
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		b, err := os.ReadFile(p)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		d := &declaration{}
		if err := json.Unmarshal(b, d); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return d, nil
	}
	return nil, firstErr
}

// outDir is where the benchmark keeps its store directories, edge
// lists, traces and result documents: benchmark/out/, whichever of the
// two directories the program was started from.
func outDir() string {
	if _, err := os.Stat("surface.go"); err == nil {
		return "out"
	}
	return filepath.Join("benchmark", "out")
}

// ---- one run of one workload ----

type profile struct {
	name  string
	n     int // vertices of the graph behind the four in-memory workloads
	nBig  int // vertices of the ingest graph
	smoke bool
}

var profiles = map[string]profile{
	"full":  {name: "full", n: 6000, nBig: 250_000},
	"smoke": {name: "smoke", n: 1500, nBig: 20_000, smoke: true},
}

type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	prof     profile
	// breakOracle makes the expected WCC checksum of the /run oracle
	// wrong; the smoke test uses it to show that a wrong answer fails
	// the run.
	breakOracle bool
}

// opsPerRound scales a per-second rate measured at HEAD on the 2-core
// reference box to the fixed number of operations one round performs:
// the same --seconds gives the same counts on any two commits, at least
// 1, and the smoke profile always takes 1.
func (c *runConfig) opsPerRound(perSecond float64) int {
	if c.prof.smoke {
		return 1
	}
	return max(int(math.Round(perSecond*float64(c.seconds)/rounds)), 1)
}

type metricValue struct {
	Value  float64  `json:"value"`
	Unit   string   `json:"unit"`
	N      int      `json:"n,omitempty"`      // samples behind the value
	Spread *float64 `json:"spread,omitempty"` // (max-min)/median of the 3 slices
}

// runResult is what one run prints as its last line.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// rounds is how many equal slices the fixed work of a run is cut into.
// Each slice is measured in a round of its own: set-up with warm-up,
// the slice, teardown. A timing's value is the median of its per-round
// values, and its spread is (max-min)/median of those.
const rounds = 3

// run carries the state of one workload run.
type run struct {
	cfg     runConfig
	decl    map[string]metricDecl // the metrics this run must emit
	tr      *tracer
	res     runResult
	fails   []string
	mu      sync.Mutex
	tmp     string // scratch directory under outDir, removed when the run ends
	round   int
	samples map[string]*perRound // timings in seconds and other per-round figures
	exacts  map[string]float64   // figures that must repeat exactly
}

func newRun(cfg runConfig, d *declaration) (*run, error) {
	r := &run{cfg: cfg, decl: map[string]metricDecl{}, tr: &tracer{t0: time.Now()},
		samples: map[string]*perRound{}, exacts: map[string]float64{}}
	list := d.EndToEnd
	if cfg.trace {
		list = d.PerLayer
	}
	for _, m := range list {
		r.decl[m.Name] = m
	}
	r.res.Metrics = map[string]metricValue{}
	if err := os.MkdirAll(outDir(), 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(outDir(), "tmp-"+cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	r.tmp = tmp
	return r, nil
}

// set records a metric of the running mode; metrics of the other mode
// are dropped, so workloads compute what is cheap unconditionally.
func (r *run) set(name string, v float64, n int) { r.setSpread(name, v, n, math.NaN()) }

func (r *run) setSpread(name string, v float64, n int, spread float64) {
	d, ok := r.decl[name]
	if !ok {
		return
	}
	mv := metricValue{Value: v, Unit: d.Unit, N: n}
	if !math.IsNaN(spread) {
		mv.Spread = &spread
	}
	r.res.Metrics[name] = mv
}

// sample adds one observation of the current round to a named series.
func (r *run) sample(name string, v float64) {
	r.mu.Lock()
	s := r.samples[name]
	if s == nil {
		s = &perRound{}
		r.samples[name] = s
	}
	s[r.round] = append(s[r.round], v)
	r.mu.Unlock()
}

// series returns the named series; an empty one when nothing was sampled.
func (r *run) series(name string) *perRound {
	if s := r.samples[name]; s != nil {
		return s
	}
	return &perRound{}
}

// exact records a figure that must repeat bit for bit on every pass and
// round of the run (refiner statistics, fc, counts), checks that it
// does, and reports it under its name if a metric of that name is
// declared.
func (r *run) exact(name string, v float64) {
	if first, ok := r.exacts[name]; ok {
		r.check(math.Float64bits(first) == math.Float64bits(v), "%s was %v and is now %v; it must repeat exactly", name, first, v)
		return
	}
	r.exacts[name] = v
	r.set(name, v, 1)
}

// attempt counts one operation whose result an oracle checked.
func (r *run) attempt() {
	r.mu.Lock()
	r.res.Attempted++
	r.mu.Unlock()
}

// fail records one failed or refused operation, or one oracle that did
// not hold.
func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	r.res.Failed++
	if len(r.fails) < 20 {
		r.fails = append(r.fails, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// check is attempt + fail-unless for one oracle.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempt()
	if !ok {
		r.fail(format, args...)
	}
}

// workload is one of the five workloads: a fixture built from the seed,
// and one slice of fixed work on it.
type workload interface {
	// setUp builds the fixture and warms it up; its time is a sample of
	// setup_s.
	setUp(r *run) error
	// measure performs one slice of the fixed work. It samples "op" and
	// "aux" (seconds per operation), "op_wall" (the seconds the round's
	// primary operations took together), "quality_ratio" and
	// "storage_ratio", and checks every output.
	measure(r *run) error
	// layers runs after the traced slice of a traced run, on the live
	// fixture: it derives the per-layer metrics from the spans and from
	// direct calls on twins of the fixture.
	layers(r *run) error
	tearDown() error
}

// runRounds drives w. An untraced run is 3 rounds and reports the
// end-to-end metrics; a traced run is an untraced round and a traced
// one of the same work, whose ratio is the tracing overhead.
func (r *run) runRounds(w workload) error {
	n := rounds
	if r.cfg.trace {
		n = 2
	}
	var setups []float64
	var before, after procStats
	for r.round = 0; r.round < n; r.round++ {
		t0 := time.Now()
		if err := w.setUp(r); err != nil {
			_ = w.tearDown() // the set-up error is the one to report
			return err
		}
		setups = append(setups, sec(time.Since(t0)))
		traced := r.cfg.trace && r.round == 1
		if traced {
			r.tr.on = true
			before = readProc()
		}
		err := w.measure(r)
		if traced {
			after = readProc()
			r.tr.on = false
			if err == nil {
				err = w.layers(r)
			}
		}
		if terr := w.tearDown(); err == nil {
			err = terr
		}
		if err != nil {
			return err
		}
		// Start the next round from a collected heap, as a fresh process
		// would, so that peak RSS is one round's and not the sum of three.
		runtime.GC()
	}

	op, aux, wall := r.series("op"), r.series("aux"), r.series("op_wall")
	if r.cfg.trace {
		r.setProc(before, after, len(op[1]))
		r.set("trace.op_ms", median(op[1])*1000, len(op[1]))
		r.set("proc.trace_overhead_share", median(op[1])/median(op[0])-1, op.n())
		return nil
	}
	sv := sortedCopy(setups)
	r.setSpread("setup_s", median(setups), len(setups), (sv[len(sv)-1]-sv[0])/median(setups))
	v, sp := op.quantile(0.5)
	r.setSpread("op_p50_ms", v*1000, op.n(), sp)
	v, sp = op.stat(func(i int, xs []float64) float64 { return float64(len(xs)) / sum(wall[i]) })
	r.setSpread("ops_per_s", v, op.n(), sp)
	v, sp = aux.stat(func(_ int, xs []float64) float64 { return quietMedian(xs) })
	r.setSpread("aux_p50_ms", v*1000, aux.n(), sp)
	for _, name := range []string{"quality_ratio", "storage_ratio"} {
		r.set(name, median(r.series(name).all()), r.series(name).n())
	}
	return nil
}

// finish completes the metric set: a per-layer metric the workload did
// not set belongs to a layer the workload does not call, and reads 0;
// an end-to-end metric must have been measured.
func (r *run) finish() error {
	for name, d := range r.decl {
		if _, ok := r.res.Metrics[name]; ok {
			continue
		}
		if !r.cfg.trace {
			return fmt.Errorf("workload %s did not measure end-to-end metric %s", r.cfg.workload, name)
		}
		r.res.Metrics[name] = metricValue{Value: 0, Unit: d.Unit}
	}
	for name, m := range r.res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	r.res.Correct = r.res.Failed == 0
	if r.res.Attempted < 1 {
		return fmt.Errorf("workload %s checked nothing", r.cfg.workload)
	}
	return nil
}

// ---- statistics ----

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the nearest-rank q-quantile of xs (q in [0,1]).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quietMedian is the median of the quietest of quietSlices consecutive
// slices of xs, a round's latencies in the order they were measured on
// one connection. Whatever else the host runs can only add to a
// latency, so the slice with the lowest median is the one that says most
// about the program; a slower program is slower in every slice. A round
// of fewer than quietSlices*quietSliceMin latencies is one slice.
func quietMedian(xs []float64) float64 {
	if len(xs) < quietSlices*quietSliceMin {
		return median(xs)
	}
	best := math.Inf(1)
	for k := 0; k < quietSlices; k++ {
		best = min(best, median(xs[k*len(xs)/quietSlices:(k+1)*len(xs)/quietSlices]))
	}
	return best
}

const (
	quietSlices   = 8
	quietSliceMin = 250
)

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func geoMean(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += math.Log(x)
	}
	return math.Exp(t / float64(len(xs)))
}

// perRound holds the observations of a series, round by round.
type perRound [rounds][]float64

func (s *perRound) n() int { return len(s.all()) }

func (s *perRound) all() []float64 {
	var all []float64
	for _, xs := range s {
		all = append(all, xs...)
	}
	return all
}

// stat reduces every round that has observations with per, and returns
// the median of the per-round values and their (max-min)/median.
func (s *perRound) stat(per func(round int, xs []float64) float64) (value, spread float64) {
	var v []float64
	for i, xs := range s {
		if len(xs) > 0 {
			v = append(v, per(i, xs))
		}
	}
	if len(v) == 0 {
		return math.NaN(), math.NaN()
	}
	value = median(v)
	sv := sortedCopy(v)
	return value, (sv[len(sv)-1] - sv[0]) / value
}

func (s *perRound) quantile(q float64) (value, spread float64) {
	return s.stat(func(_ int, xs []float64) float64 { return quantile(xs, q) })
}

func ms(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }
func sec(d time.Duration) float64 { return d.Seconds() }

// spearman is the rank correlation of xs and ys.
func spearman(xs, ys []float64) float64 {
	rank := func(v []float64) []float64 {
		idx := make([]int, len(v))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
		r := make([]float64, len(v))
		for pos, i := range idx {
			r[i] = float64(pos)
		}
		return r
	}
	rx, ry := rank(xs), rank(ys)
	mx, my := sum(rx)/float64(len(rx)), sum(ry)/float64(len(ry))
	var sxy, sxx, syy float64
	for i := range rx {
		sxy += (rx[i] - mx) * (ry[i] - my)
		sxx += (rx[i] - mx) * (rx[i] - mx)
		syy += (ry[i] - my) * (ry[i] - my)
	}
	return sxy / math.Sqrt(sxx*syy)
}

// ---- process figures ----

type procStats struct {
	cpu     time.Duration
	gcPause time.Duration
	alloc   uint64
	numGC   uint32
}

func readProc() procStats {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return procStats{tv(ru.Utime) + tv(ru.Stime), time.Duration(m.PauseTotalNs), m.TotalAlloc, m.NumGC}
}

// setProc reports what the process spent between two readings, per
// operation of the timed section.
func (r *run) setProc(before, after procStats, ops int) {
	r.set("proc.cpu_s", sec(after.cpu-before.cpu)/float64(ops), ops)
	r.set("proc.gc_pause_ms", ms(after.gcPause-before.gcPause)/float64(ops), ops)
	r.set("proc.alloc_mb", float64(after.alloc-before.alloc)/(1<<20)/float64(ops), ops)
	r.set("proc.num_gc", float64(after.numGC-before.numGC)/float64(ops), ops)
}

// peakRSSMB is VmHWM of this process.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func loadAverage() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64) // 0 when unreadable: the figure is advisory
	return v
}

// ---- tracing from outside ----

// span is one call into a layer, recorded around the call by the
// benchmark. Times are nanoseconds since the run started.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"` // index of the causing span, -1 for a root
	Op     int    `json:"op_id"`  // spans of one pass or request share it
}

type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// start opens a span and returns its index, or -1 when tracing is off.
func (t *tracer) start(layer, name string, parent, op int) int {
	if !t.on {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Layer: layer, Start: now, Parent: parent, Op: op})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *tracer) stop(id int) {
	if id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// do records fn as one span.
func (t *tracer) do(layer, name string, parent, op int, fn func()) {
	id := t.start(layer, name, parent, op)
	fn()
	t.stop(id)
}

// child records a span whose interval another layer reported (refiner
// phase durations), placed at offset inside its parent.
func (t *tracer) child(layer, name string, parent, op int, offset, d time.Duration) {
	if !t.on || parent < 0 {
		return
	}
	t.mu.Lock()
	s := t.spans[parent].Start + int64(offset)
	t.spans = append(t.spans, span{Name: name, Layer: layer, Start: s, End: s + int64(d), Parent: parent, Op: op})
	t.mu.Unlock()
}

// totals sums span durations by "layer.name", and self times (a span's
// duration minus the part its children cover) by layer.
func (t *tracer) totals() (byName, selfByLayer map[string]time.Duration) {
	byName, selfByLayer = map[string]time.Duration{}, map[string]time.Duration{}
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		d := s.End - s.Start
		byName[s.Layer+"."+s.Name] += time.Duration(d)
		selfByLayer[s.Layer] += time.Duration(d - covered[i])
	}
	return byName, selfByLayer
}

func (t *tracer) write(workload string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir(), "trace-"+workload+".json"), b, 0o644)
}

// spanReport closes the traced slice of a workload whose operations are
// root spans (passes). It prints the layers' self times per operation
// beside the operation's end-to-end time, with the remainder no span
// explains (the root spans' own self time, layer "harness"), reports
// that remainder as trace.unexplained_share, and returns the traced
// operation count and the seconds per operation spent in spans of a
// given "layer.name".
func (r *run) spanReport() (count int, perOp func(name string) float64) {
	ops := r.series("op")[r.round]
	count = len(ops)
	opWall := time.Duration(sum(ops) / float64(count) * float64(time.Second))
	byName, self := r.tr.totals()
	layers := make([]string, 0, len(self))
	for l := range self {
		if l != "harness" {
			layers = append(layers, l)
		}
	}
	sort.Strings(layers)
	fmt.Fprintf(os.Stderr, "%s: layer self time per traced operation (%d traced, %.2f ms each end to end)\n",
		r.cfg.workload, count, ms(opWall))
	var explained time.Duration
	for _, l := range layers {
		per := self[l] / time.Duration(count)
		explained += per
		fmt.Fprintf(os.Stderr, "  %-12s %10.3f ms  %5.1f %%\n", l, ms(per), 100*float64(per)/float64(opWall))
	}
	rest := opWall - explained
	fmt.Fprintf(os.Stderr, "  %-12s %10.3f ms  %5.1f %%\n", "unexplained", ms(rest), 100*float64(rest)/float64(opWall))
	r.set("trace.unexplained_share", float64(rest)/float64(opWall), count)
	return count, func(name string) float64 { return sec(byName[name]) / float64(count) }
}
