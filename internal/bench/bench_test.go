package bench

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"adp/internal/algorithms"
	"adp/internal/costmodel"
	"adp/internal/engine"
)

func TestExperimentRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments() {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Title == "" {
			t.Fatalf("experiment %q incomplete", e.ID)
		}
	}
	if _, ok := ByID("table3"); !ok {
		t.Fatal("ByID(table3) missing")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID invented an experiment")
	}
	want := []string{"table3", "fig9a", "fig9b", "fig9c", "fig9d", "fig9e", "fig9f",
		"fig9g", "fig9h", "fig9i", "fig9j", "fig9k", "fig9l", "table4", "fig10b",
		"space", "table5", "fig11", "seqcmp", "gingersweep", "ablation", "repl", "drift"}
	if len(Experiments()) != len(want) {
		t.Fatalf("expected %d experiments, got %d", len(want), len(Experiments()))
	}
	for _, id := range want {
		if !seen[id] {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
}

func TestDatasetCacheAndVariants(t *testing.T) {
	a := Dataset(DSSocial)
	b := Dataset(DSSocial)
	if a != b {
		t.Fatal("dataset not cached")
	}
	u := Dataset(DSSocial + "-u")
	if !u.Undirected() {
		t.Fatal("-u variant not symmetrised")
	}
	if u.NumVertices() != a.NumVertices() {
		t.Fatal("-u variant changed the vertex set")
	}
}

func TestDatasetUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown dataset did not panic")
		}
	}()
	Dataset("nope")
}

func TestTableFprint(t *testing.T) {
	tbl := &Table{ID: "x", Title: "demo", Header: []string{"a", "bb"}}
	tbl.addRow([]string{"row", "1.0"}, []float64{0, 1})
	tbl.Notes = append(tbl.Notes, "hello")
	var buf bytes.Buffer
	tbl.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== x: demo ==", "a", "bb", "row", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// Table 3's headline: the CN-driven refinement collapses the cost
// balance factor λCN of the edge-cut baselines while the static
// metrics stay in the same regime.
func TestTable3Claims(t *testing.T) {
	tbl, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	lcn := map[string]float64{}
	for i, row := range tbl.Rows {
		lcn[row[0]] = tbl.Values[i][5]
	}
	for _, base := range []string{"xtraPuLP", "Fennel"} {
		if lcn["H"+base] >= lcn[base] {
			t.Errorf("λCN of H%s (%v) not below %s (%v)", base, lcn["H"+base], base, lcn[base])
		}
	}
}

// Fig 9(a) on the liveJournal stand-in: the H-refinements must beat
// their baselines for CN on average (the paper's headline effect).
func TestFig9CNSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment")
	}
	tbl, err := Fig9Exec(costmodel.CN, DSSocial, "fig9a")
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]float64{}
	for i, row := range tbl.Rows {
		byName[row[0]] = tbl.Values[i][1:]
	}
	// At the largest n, HFennel must beat Fennel clearly.
	last := len(fig9NS)
	if h, b := byName["HFennel"][last-1], byName["Fennel"][last-1]; h >= b {
		t.Errorf("HFennel (%v) not below Fennel (%v) at n=%d", h, b, fig9NS[last-1])
	}
	if h, b := byName["HxtraPuLP"][last-1], byName["xtraPuLP"][last-1]; h >= b {
		t.Errorf("HxtraPuLP (%v) not below xtraPuLP (%v)", h, b)
	}
}

// Exp-2 correctness gate: every algorithm of the batch must return
// oracle-identical results over its composite partition.
func TestBatchCompositeCorrect(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment")
	}
	if err := batchOutcomesMatchOracle("NE"); err != nil {
		t.Fatal(err)
	}
}

// The Exp-4 space claim: composite storage beats separate storage for
// every baseline.
func TestSpaceSaving(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment")
	}
	tbl, err := SpaceTable()
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range tbl.Rows {
		if saving := tbl.Values[i][4]; saving <= 0.2 {
			t.Errorf("%s: composite saving only %.0f%%", row[0], saving*100)
		}
	}
}

// The ablation invariants that must hold regardless of machine:
// greedy GetDest never yields a worse fc than naive destinations, and
// VMerge never hurts TC's parallel cost.
func TestAblationInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment")
	}
	tbl, err := Ablations()
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range tbl.Rows {
		with, without := tbl.Values[i][1], tbl.Values[i][2]
		switch row[0] {
		case "GetDest set cover":
			if with > without*1.001 {
				t.Errorf("greedy GetDest fc %v worse than naive %v", with, without)
			}
		case "VMerge (TC)":
			if with > without*1.05 {
				t.Errorf("VMerge made TC worse: %v vs %v", with, without)
			}
		case "MAssign":
			if with > without*1.05 {
				t.Errorf("MAssign made things worse: %v vs %v", with, without)
			}
		}
	}
}

// Cost-model learning from engine logs must reach the paper's
// accuracy bar for the well-behaved models.
func TestTrainedModelAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("full training sweep")
	}
	for _, algo := range []costmodel.Algo{costmodel.PR, costmodel.WCC, costmodel.SSSP} {
		tm, err := TrainFromLogs(algo, false)
		if err != nil {
			t.Fatal(err)
		}
		if tm.MSRE > 0.11 {
			t.Errorf("%v hA MSRE = %v, want ≤ 0.11", algo, tm.MSRE)
		}
		tg, err := TrainFromLogs(algo, true)
		if err != nil {
			t.Fatal(err)
		}
		if tg.MSRE > 0.11 {
			t.Errorf("%v gA MSRE = %v, want ≤ 0.11", algo, tg.MSRE)
		}
	}
}

// batchOutcomesMatchOracle verifies that every algorithm in the batch
// returns oracle-identical results over its composite partition.
func batchOutcomesMatchOracle(baseName string) error {
	r, err := compositeFor(baseName)
	if err != nil {
		return err
	}
	g := Dataset(batchGraphName)
	opts := defaultOpts(DSTwitter)
	for j, algo := range batchAlgos {
		want := algorithms.SeqOutcome(g, algo, opts)
		got, err := algorithms.Run(engine.NewCluster(r.comp.Partition(j)), algo, opts)
		if err != nil {
			return fmt.Errorf("%v: %w", algo, err)
		}
		if got.Checksum != want.Checksum {
			return fmt.Errorf("%v: checksum mismatch over composite partition %d", algo, j)
		}
	}
	return nil
}

// TestConfiguredContextCancelsExperiments: a dead configured context
// aborts an experiment driver before it does any work.
func TestConfiguredContextCancelsExperiments(t *testing.T) {
	defer Configure(engine.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	Configure(engine.Options{Context: ctx})
	if _, err := Fig9Exec(costmodel.CN, DSSocial, "fig9a"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
