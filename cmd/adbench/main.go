// Command adbench regenerates the paper's tables and figures.
//
// Usage:
//
//	adbench list                   # show available experiment ids
//	adbench all                    # run every experiment in paper order
//	adbench table3 fig9b ...       # run selected experiments
//	adbench -workers 1 all         # deterministic single-threaded run
//
// Every table's numbers are identical for any -workers value (the
// shared pool guarantees schedule-independent output); the flag only
// trades wall time against CPU. Performance is judged by
// `bash benchmark/run.sh` (BENCHMARK.json), not here.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"adp/internal/bench"
	"adp/internal/engine"
	"adp/internal/fault"
	"adp/internal/pool"
	"adp/internal/prof"
)

func main() { os.Exit(run(os.Args[1:])) }

// run is main with an exit code instead of os.Exit, so the deferred
// profile stop runs on every path, failures included.
func run(args []string) int {
	fs := flag.NewFlagSet("adbench", flag.ExitOnError)
	workers := fs.Int("workers", 0, "worker-pool size for all parallel phases (0 = GOMAXPROCS, 1 = single-threaded)")
	seed := fs.Int64("seed", 1, "seed for rand:N fault schedules")
	timeout := fs.Duration("timeout", 0, "abort the remaining experiments after this duration (0 = no timeout)")
	faultSpec := fs.String("faults", "", `fault schedule injected into every engine run: grammar spec or "rand:N" (costs are unchanged by design)`)
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this path")
	memProfile := fs.String("memprofile", "", "write a heap profile to this path on exit")
	fs.Usage = usage
	fs.Parse(args)
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "adbench: -workers must be >= 0 (got %d)\n", *workers)
		return 2
	}
	if *workers != 0 {
		pool.SetDefaultWorkers(*workers)
	}
	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "adbench:", err)
		return 1
	}
	defer stopProf()
	events, err := fault.FromFlag(*faultSpec, *seed, 8, 8)
	if err != nil {
		fmt.Fprintln(os.Stderr, "adbench:", err)
		return 2
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	bench.Configure(engine.Options{Context: ctx, Injector: fault.NewInjector(events...)})
	ids := fs.Args()
	if len(ids) == 0 {
		usage()
		return 2
	}
	switch ids[0] {
	case "list":
		for _, e := range bench.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return 0
	case "all":
		ids = nil
		for _, e := range bench.Experiments() {
			ids = append(ids, e.ID)
		}
	}
	for _, id := range ids {
		e, ok := bench.ByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "adbench: unknown experiment %q (try 'adbench list')\n", id)
			return 2
		}
		start := time.Now()
		tbl, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "adbench: %s: %v\n", id, err)
			return 1
		}
		tbl.Fprint(os.Stdout)
		fmt.Printf("(%s regenerated in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

func usage() {
	fmt.Fprintln(os.Stderr, `adbench — regenerate the paper's experiments
usage:
  adbench [-workers N] list            list experiment ids
  adbench [-workers N] all             run everything
  adbench [-workers N] <id> [<id>...]  run selected experiments

-workers sizes the shared worker pool (0 = GOMAXPROCS). Results are
identical for every value; only wall time changes.
-cpuprofile / -memprofile write runtime/pprof CPU and heap profiles.
-faults injects a deterministic fault schedule (grammar spec or
"rand:N", drawn from -seed) into every engine run; checkpoint/recovery
replays to identical barrier state, so every reported cost is
unchanged. -timeout aborts the remaining experiments cleanly.`)
}
