package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"
)

// environment says where and how a result document was measured.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"GOMAXPROCS"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Profile    string  `json:"profile"`
	Seconds    int     `json:"seconds"`
	TotalWallS float64 `json:"total_wall_s"`
}

type workloadResult struct {
	LoadAvgBefore float64    `json:"load_avg_1m_before"`
	WallS         float64    `json:"wall_s"`
	EndToEnd      *runResult `json:"end_to_end"`
	PerLayer      *runResult `json:"per_layer"`
}

type document struct {
	Env       environment                `json:"env"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runAll runs every declared workload untraced and then traced, each
// run in a process of its own (fresh heap, its own peak RSS), and
// prints one document with every metric by name and unit.
func runAll(d *declaration, seed int64, seconds int, prof profile) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	doc := document{
		Env: environment{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Commit: gitCommit(), Seed: seed, Profile: prof.name, Seconds: seconds},
		Workloads: map[string]*workloadResult{},
	}
	start := time.Now()
	failed := false
	for _, w := range d.Workloads {
		wr := &workloadResult{LoadAvgBefore: loadAverage()}
		if wr.LoadAvgBefore > float64(runtime.NumCPU())/2 {
			fmt.Fprintf(os.Stderr, "benchmark: warning: 1-minute load average %.2f before %s exceeds nproc/2; timings will be noisy\n", wr.LoadAvgBefore, w.Name)
		}
		t0 := time.Now()
		for _, trace := range []int{0, 1} {
			cmd := exec.Command(self, "--workload", w.Name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds),
				"--trace", fmt.Sprint(trace), "--profile", prof.name, "--detail")
			cmd.Stderr = os.Stderr
			out, runErr := cmd.Output()
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			res := &runResult{}
			if err := json.Unmarshal(lines[len(lines)-1], res); err != nil {
				return fmt.Errorf("workload %s (trace %d) printed no result: %v (%v)", w.Name, trace, err, runErr)
			}
			failed = failed || runErr != nil || !res.Correct
			if trace == 0 {
				wr.EndToEnd = res
			} else {
				wr.PerLayer = res
			}
		}
		wr.WallS = sec(time.Since(t0))
		doc.Workloads[w.Name] = wr
	}
	doc.Env.TotalWallS = sec(time.Since(start))
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir(), "result.json"), b, 0o644); err != nil {
		return err
	}
	fmt.Println(string(b))
	if failed {
		return fmt.Errorf("at least one check failed")
	}
	return nil
}

func readDocument(path string) (*document, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	doc := &document{}
	if err := json.Unmarshal(b, doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// compareDocuments prints one row per workload and end-to-end metric:
// both values, the ratio b/a with a as its base, and a verdict. A row
// is "regressed" when b is worse than a by more than the metric's
// bound, and "unresolved" when either side's spread across its three
// slices is wider than the bound, so the bound cannot be told from
// noise. Any row that is not "ok" makes the comparison fail.
func compareDocuments(d *declaration, pathA, pathB string) error {
	a, err := readDocument(pathA)
	if err != nil {
		return err
	}
	b, err := readDocument(pathB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\ta\tb\tb/a (base a)\tbound\tverdict\n")
	bad := 0
	for _, w := range d.Workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil || wa.EndToEnd == nil || wb.EndToEnd == nil {
			return fmt.Errorf("workload %s is missing from one of the documents", w.Name)
		}
		for _, m := range d.EndToEnd {
			ma, okA := wa.EndToEnd.Metrics[m.Name]
			mb, okB := wb.EndToEnd.Metrics[m.Name]
			if !okA || !okB {
				return fmt.Errorf("metric %s of workload %s is missing from one of the documents", m.Name, w.Name)
			}
			ratio := mb.Value / ma.Value
			worse := ratio - 1
			if m.Better == "higher" {
				worse = 1 - ratio
			}
			verdict := "ok"
			switch {
			case (ma.Spread != nil && *ma.Spread > m.Bound) || (mb.Spread != nil && *mb.Spread > m.Bound):
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
			}
			if verdict != "ok" {
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.4f of %.6g\t%.2f\t%s\n",
				w.Name, m.Name, m.Unit, ma.Value, mb.Value, ratio, ma.Value, m.Bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d rows are not ok", bad)
	}
	return nil
}
