package main

import (
	"math"
	"regexp"
	"testing"
)

// The smoke profile runs every workload on tiny inputs. The tests assert
// presence, shape and oracles, never timings.

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func smokeConfig(workload string, trace bool) runConfig {
	return runConfig{workload: workload, seed: 1, seconds: 1, trace: trace, prof: profiles["smoke"]}
}

func TestDeclaration(t *testing.T) {
	d, err := loadDeclaration()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(d.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(d.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(d.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	seen := map[string]bool{}
	name := func(s string) {
		if !nameRE.MatchString(s) {
			t.Errorf("name %q is not allowed", s)
		}
		if seen[s] {
			t.Errorf("name %q is used twice", s)
		}
		seen[s] = true
	}
	for _, w := range d.Workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range append(append([]metricDecl(nil), d.EndToEnd...), d.PerLayer...) {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q is not allowed", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	for _, m := range d.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v", m.Name, m.Bound)
		}
	}
	if !setup {
		t.Error("no end-to-end metric setup_s in s, lower is better")
	}
}

func TestSmoke(t *testing.T) {
	d, err := loadDeclaration()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range d.Workloads {
		for _, trace := range []bool{false, true} {
			declared := d.EndToEnd
			if trace {
				declared = d.PerLayer
			}
			res, err := runWorkload(d, smokeConfig(w.Name, trace))
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (trace %v): correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s (trace %v): %d metrics emitted, %d declared", w.Name, trace, len(res.Metrics), len(declared))
			}
			for _, m := range declared {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s: declared metric %s was not emitted", w.Name, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: metric %s has unit %q, declared %q", w.Name, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: metric %s is %v", w.Name, m.Name, got.Value)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, want > 0", w.Name, m.Name, got.Value)
				case got.Value != 0 && got.N < 1:
					t.Errorf("%s: metric %s carries no sample count", w.Name, m.Name)
				}
			}
		}
	}
}

// A /run reply that does not match the oracle must fail the run.
func TestWrongChecksumFailsTheRun(t *testing.T) {
	d, err := loadDeclaration()
	if err != nil {
		t.Fatal(err)
	}
	cfg := smokeConfig("serve_read", false)
	cfg.breakOracle = true
	res, err := runWorkload(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Errorf("a wrong /run checksum went unnoticed: correct=%v failed=%d", res.Correct, res.Failed)
	}
}
