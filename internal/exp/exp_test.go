package exp

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
)

// tinyScale keeps harness tests fast: N = 100 (the scaled floor).
const tinyScale = 0.00005

func TestDefaults(t *testing.T) {
	s := StaticDefaults(1)
	if s.N != 1_000_000 || s.TO != 2 || s.PO != 2 || s.H != 8 || s.D != 0.8 {
		t.Errorf("static defaults wrong: %+v", s)
	}
	d := DynamicDefaults(1)
	if d.N != 1_000_000 || d.TO != 3 || d.PO != 1 || d.H != 6 {
		t.Errorf("dynamic defaults wrong: %+v", d)
	}
	if got := StaticDefaults(0.5).N; got != 500_000 {
		t.Errorf("scaled N = %d, want 500000", got)
	}
	if got := scaled(1000, 0.00001); got != 100 {
		t.Errorf("scale floor = %d, want 100", got)
	}
}

func TestBuildDatasetShape(t *testing.T) {
	cfg := StaticDefaults(tinyScale)
	ds := BuildDataset(cfg)
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(ds.Pts) != cfg.N || ds.NumTO() != 2 || ds.NumPO() != 2 {
		t.Fatalf("dataset shape wrong: n=%d TO=%d PO=%d", len(ds.Pts), ds.NumTO(), ds.NumPO())
	}
	// Deterministic for equal seeds.
	ds2 := BuildDataset(cfg)
	for i := range ds.Pts {
		for d := range ds.Pts[i].TO {
			if ds.Pts[i].TO[d] != ds2.Pts[i].TO[d] {
				t.Fatal("dataset generation not deterministic")
			}
		}
	}
}

func TestQueryDomainsShape(t *testing.T) {
	cfg := DynamicDefaults(tinyScale)
	ds := BuildDataset(cfg)
	q0 := QueryDomains(cfg, ds, 0)
	q1 := QueryDomains(cfg, ds, 1)
	if len(q0) != 1 || q0[0].Size() != ds.Domains[0].Size() {
		t.Fatal("query domain shape wrong")
	}
	// Different query indexes give different orders (with overwhelming
	// probability).
	if q0[0].DAG().Edges() == q1[0].DAG().Edges() &&
		q0[0].Ord(0) == q1[0].Ord(0) && q0[0].Ord(1) == q1[0].Ord(1) {
		t.Log("query domains look identical; acceptable but unlikely")
	}
}

func TestRunStaticPairAgreesAndReports(t *testing.T) {
	cfg := StaticDefaults(tinyScale)
	cfg.Dist = data.AntiCorrelated
	rows := runStaticPair("t", "x", cfg) // panics on disagreement
	if len(rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.TotalSec <= 0 || r.Skyline == 0 {
			t.Errorf("degenerate row: %+v", r)
		}
	}
}

// TestTSSRowCountsListChecks: the figures' checks column counts the
// paper's candidate-list checks, not the serving cursor's kernel tests.
func TestTSSRowCountsListChecks(t *testing.T) {
	cfg := StaticDefaults(tinyScale)
	cfg.Dist = data.AntiCorrelated
	want := core.STSS(BuildDataset(cfg), core.Options{NoKernel: true}).Metrics.DomChecks
	for _, r := range runStaticPair("t", "x", cfg) {
		if r.Series == "TSS" && r.Checks != want {
			t.Errorf("TSS row counts %d checks, the list checker %d", r.Checks, want)
		}
	}
}

func TestRunDynamicPairAgrees(t *testing.T) {
	// At very small N the many group-root reads of dTSS outweigh the
	// rebuild (the paper's §VI-C caveat about root visits), so this
	// test needs a data size where the rebuild passes dominate.
	cfg := DynamicDefaults(0.02) // N = 20000
	cfg.Queries = 2
	rows := runDynamicPair("t", "x", cfg)
	if len(rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(rows))
	}
	// The rebuild baseline must be slower once IOs are charged: it
	// re-sorts and re-loads the file on every query.
	var sdc, tss Row
	for _, r := range rows {
		if r.Series == "SDC+" {
			sdc = r
		} else {
			tss = r
		}
	}
	if sdc.IOs <= tss.IOs {
		t.Errorf("dynamic SDC+ should cost more IOs (rebuild): sdc=%d tss=%d", sdc.IOs, tss.IOs)
	}
}

func TestFigure11Shape(t *testing.T) {
	rows := Figure11(tinyScale)
	series := map[string]int{}
	for _, r := range rows {
		series[r.Figure+"/"+r.Series]++
		if r.Sec < 0 {
			t.Error("negative progress time")
		}
	}
	for _, key := range []string{"11a/TSS", "11a/SDC+", "11b/TSS", "11b/SDC+"} {
		if series[key] != 10 {
			t.Errorf("%s has %d deciles, want 10", key, series[key])
		}
	}
	var buf strings.Builder
	WriteProgress(&buf, rows)
	if !strings.Contains(buf.String(), "Figure 11a") {
		t.Error("progress report missing figure header")
	}
}

func TestVerifyAgreement(t *testing.T) {
	if err := VerifyAgreement(tinyScale * 10); err != nil {
		t.Fatal(err)
	}
}

// TestHeadlineShapes guards the reproduction's two headline claims at a
// size where they are expected to hold (N=20K static and dynamic, with
// a ≥1.5× dynamic gap; the paper's gaps at full scale are larger).
func TestHeadlineShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("headline shapes need a non-trivial N")
	}
	if err := HeadlineShapes(0.02, 1.5); err != nil {
		t.Fatal(err)
	}
}

func TestAblationsRun(t *testing.T) {
	rows := Ablations(tinyScale)
	if len(rows) != 13 {
		t.Fatalf("want 13 ablation rows, got %d", len(rows))
	}
	var buf strings.Builder
	WriteRows(&buf, rows)
	out := buf.String()
	if !strings.Contains(out, "ablation-static") || !strings.Contains(out, "mem/full/dyadic") {
		t.Error("ablation report incomplete")
	}
}

func TestWriteRowsSpeedupColumn(t *testing.T) {
	rows := []Row{
		{Figure: "7a", Series: "SDC+", X: "100K", TotalSec: 10},
		{Figure: "7a", Series: "TSS", X: "100K", TotalSec: 2},
	}
	var buf strings.Builder
	WriteRows(&buf, rows)
	if !strings.Contains(buf.String(), "5.00x") {
		t.Errorf("speedup column missing:\n%s", buf.String())
	}
}
