package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"adp/internal/composite"
	"adp/internal/gen"
	"adp/internal/graph"
	"adp/internal/maintain"
	"adp/internal/partition"
	"adp/internal/partitioner"
	"adp/internal/serve"
	"adp/internal/store"
)

// The drift experiment's fixed shape: the number of extra edges
// injected into fragment 0 of every partition (the drift event), the
// drift-detector tick, and the bound on the whole measurement.
const (
	driftSkewEdges = 600
	driftInterval  = 20 * time.Millisecond
	driftTimeout   = 120 * time.Second
)

// DriftRecover boots a serving daemon plus its maintenance loop over a
// mid-size reference graph, injects a structural skew through the live
// update path, keeps request traffic flowing, and times how long the
// loop takes to detect the drift, re-refine off the serving path and
// promote a validated epoch: wall time from the first skewed update
// batch posted to the first validated promotion, with the detector
// signal that triggered the cycle.
func DriftRecover() (*Table, error) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 2000, AvgDeg: 6, Exponent: 2.1, Directed: false, Seed: 29})
	p1, err := partitioner.HashEdgeCut(g, 4)
	if err != nil {
		return nil, err
	}
	assign := make([]int, g.NumVertices())
	for v := range assign {
		assign[v] = (v + 1) % 4
	}
	p2, err := partition.FromVertexAssignment(g, assign, 4)
	if err != nil {
		return nil, err
	}
	comp, err := composite.New(g, []*partition.Partition{p1, p2})
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "adp-bench-drift-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Create(dir, comp, store.Options{})
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(st, serve.Config{SessionsPerAlgo: 2, MaxInflight: 64, UpdateQueue: 16})
	if err != nil {
		st.Close()
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv.Start(l)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Drain(ctx)
	}()
	url := "http://" + l.Addr().String()

	lp := maintain.New(srv, maintain.Config{
		Interval:       driftInterval,
		DriftThreshold: 0.05,
		MinGain:        -1, // measure detection + promotion latency, not gain
		RefineTimeout:  60 * time.Second,
		Watchdog:       maintain.WatchdogConfig{Window: 10 * time.Millisecond, CostFactor: 1000, LatFactor: 1000, MinSamples: 1 << 20},
	})
	lp.Start()
	defer lp.Stop()

	// The drift event: extra edges, all landing in fragment 0 of both
	// partitions, posted through the live update path.
	var sb strings.Builder
	count := 0
	n := g.NumVertices()
	for u := 0; u < n && count < driftSkewEdges; u++ {
		for v := u + 1; v < n && count < driftSkewEdges; v++ {
			uu, vv := graph.VertexID(u), graph.VertexID(v)
			if !g.HasEdge(uu, vv) && !g.HasEdge(vv, uu) {
				fmt.Fprintf(&sb, "+ %d %d 0 0\n", u, v)
				count++
			}
		}
	}
	start := time.Now()
	resp, err := http.Post(url+"/updates", "text/plain", strings.NewReader(sb.String()))
	if err != nil {
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("bench: drift injection: status %d", resp.StatusCode)
	}

	// Keep traffic flowing so the detector window sees the skewed
	// workload, and wait for the first validated promotion.
	body, _ := json.Marshal(map[string]any{"algo": "WCC"})
	deadline := time.Now().Add(driftTimeout)
	for {
		resp, err := http.Post(url+"/run", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("bench: drift traffic: status %d", resp.StatusCode)
		}
		if st := lp.Status(); st.Promoted >= 1 {
			ms := float64(time.Since(start).Microseconds()) / 1000
			t := &Table{
				ID:     "drift",
				Title:  fmt.Sprintf("Maintenance drift recovery (PowerLaw N=2000, 2x4 fragments, %d skewed edges)", driftSkewEdges),
				Header: []string{"recover(ms)", "drift signal"},
			}
			t.addRow([]string{fmtF(ms), fmtF(st.LastDrift)}, []float64{ms, st.LastDrift})
			t.Notes = append(t.Notes,
				"wall time from the skewed /updates batch to the maintenance loop's first validated promotion, under continuous /run traffic; one sample")
			return t, nil
		}
		if time.Now().After(deadline) {
			st := lp.Status()
			return nil, fmt.Errorf("bench: no promotion within %v (drift %.4f, cycles %d, last error %q)",
				driftTimeout, st.LastDrift, st.Cycles, st.LastError)
		}
	}
}
