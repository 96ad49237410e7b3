// Command benchmark measures the system end to end and layer by layer,
// from outside: it times calls into the layers' public functions and
// checks every output against an oracle. README.md says who waits for
// what, and BENCHMARK.json at the root of the repository declares the
// workloads and metrics.
//
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//	    one run of one workload; the last line of standard output is the
//	    result object (end-to-end metrics untraced, per-layer traced)
//	bash benchmark/run.sh [--seed N] [--profile full|smoke]
//	    every workload, untraced then traced, each in a process of its
//	    own; prints and keeps one JSON document (benchmark/out/result.json)
//	bash benchmark/run.sh --compare a.json b.json
//	    compares two such documents metric by metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	if err := mainErr(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "run this one workload and print its result object")
	seed := fs.Int64("seed", 1, "seed every graph and request sequence derives from")
	seconds := fs.Int("seconds", 0, "size the fixed work of a run to about this long (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1: traced run, reports the per-layer metrics")
	profName := fs.String("profile", "full", "full, or smoke (tiny inputs, for the test)")
	detail := fs.Bool("detail", false, "add sample counts and round spreads to the result object")
	compare := fs.Bool("compare", false, "compare the two result documents named as arguments")
	if err := fs.Parse(args); err != nil {
		return err
	}
	d, err := loadDeclaration()
	if err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("--compare takes two result documents")
		}
		return compareDocuments(d, fs.Arg(0), fs.Arg(1))
	}
	prof, ok := profiles[*profName]
	if !ok {
		return fmt.Errorf("unknown profile %q", *profName)
	}
	if *seconds <= 0 {
		*seconds = d.RunSeconds
	}
	if *workload == "" {
		return runAll(d, *seed, *seconds, prof)
	}
	res, err := runWorkload(d, runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, prof: prof})
	if err != nil {
		return err
	}
	if !*detail {
		for name, m := range res.Metrics {
			res.Metrics[name] = metricValue{Value: m.Value, Unit: m.Unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("workload %s: %d of %d checks failed", *workload, res.Failed, res.Attempted)
	}
	return nil
}

// runWorkload is one run of one workload in this process.
func runWorkload(d *declaration, cfg runConfig) (*runResult, error) {
	r, err := newRun(cfg, d)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.tmp)
	w, ok := map[string]workload{
		"refine_pipeline": &batch{pass: refinePass, rate: refinePassesPerSecond},
		"composite_build": &batch{pass: compositePass, rate: compositePassesPerSecond},
		"serve_read":      &serveRead{},
		"serve_write":     &serveWrite{},
		"ingest":          &ingest{},
	}[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := r.runRounds(w); err != nil {
		return nil, fmt.Errorf("workload %s: %w", cfg.workload, err)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	r.set("peak_rss_mb", rss, 1)
	if cfg.trace {
		if err := r.tr.write(cfg.workload); err != nil {
			return nil, err
		}
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	for _, f := range r.fails {
		fmt.Fprintln(os.Stderr, "benchmark: FAILED:", f)
	}
	return &r.res, nil
}
