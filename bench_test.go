package tss

// One testing.B benchmark per table/figure of the paper's evaluation,
// plus micro-benchmarks for the substrate operations. Each figure bench
// runs the full parameter sweep at a laptop-sized scale and reports the
// aggregate simulated total time of both contenders as custom metrics
// (sdc_total_s, tss_total_s, speedup_x) — the quantities §VI of the
// paper plots. `cmd/tssbench -scale 1` reproduces the full-size sweeps.

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/exp"
	"repro/internal/poset"
	"repro/internal/rtree"
)

// benchScale keeps the full bench suite minutes-sized; the sweeps'
// *shapes* (who wins, how the gap moves with each parameter) are scale
// invariant.
const benchScale = 0.002

func reportPair(b *testing.B, rows []exp.Row) {
	var sdc, tss float64
	for _, r := range rows {
		switch r.Series {
		case "SDC+":
			sdc += r.TotalSec
		case "TSS":
			tss += r.TotalSec
		}
	}
	b.ReportMetric(sdc, "sdc_total_s")
	b.ReportMetric(tss, "tss_total_s")
	if tss > 0 {
		b.ReportMetric(sdc/tss, "speedup_x")
	}
}

// BenchmarkTableI runs the paper's introductory example (both partial
// orders) through the public API.
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t1 := flightsTable(order1())
		if len(t1.Skyline()) != 5 {
			b.Fatal("Table I first order: wrong skyline")
		}
		t2 := flightsTable(NewOrder("a", "b", "c", "d").Prefer("b", "a"))
		if len(t2.Skyline()) != 6 {
			b.Fatal("Table I second order: wrong skyline")
		}
	}
}

// BenchmarkTableII runs the §IV-A worked example: the 13-point data set
// over the Figure 2 domain with node capacity 3.
func BenchmarkTableII(b *testing.B) {
	// Figure 2 domain through the public API.
	order := NewOrder("a", "b", "c", "d", "e", "f", "g", "h", "i")
	for _, e := range [][2]string{
		{"a", "b"}, {"b", "c"}, {"b", "d"}, {"b", "e"}, {"c", "f"}, {"d", "g"},
		{"g", "h"}, {"g", "i"}, {"a", "c"}, {"c", "g"}, {"e", "g"}, {"f", "h"},
	} {
		order.Prefer(e[0], e[1])
	}
	table := NewTable([]string{"a1"}, order)
	for _, r := range []struct {
		a1 int64
		v  string
	}{
		{2, "c"}, {3, "d"}, {1, "h"}, {8, "a"}, {6, "e"}, {7, "c"}, {9, "b"},
		{4, "i"}, {2, "f"}, {3, "g"}, {5, "g"}, {7, "f"}, {9, "h"},
	} {
		table.MustAdd([]int64{r.a1}, r.v)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := table.Skyline(); len(got) != 5 {
			b.Fatalf("Table II skyline = %v", got)
		}
	}
}

func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportPair(b, exp.Figure7(benchScale))
	}
}

func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportPair(b, exp.Figure8(benchScale))
	}
}

func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportPair(b, exp.Figure9(benchScale))
	}
}

func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportPair(b, exp.Figure10(benchScale))
	}
}

func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := exp.Figure11(benchScale * 5)
		// Report the paper's headline: time to 50% of the results.
		var sdc50, tss50 float64
		for _, r := range rows {
			if r.Pct == 50 && r.Figure == "11b" {
				if r.Series == "SDC+" {
					sdc50 = r.Sec
				} else {
					tss50 = r.Sec
				}
			}
		}
		b.ReportMetric(sdc50, "sdc_50pct_s")
		b.ReportMetric(tss50, "tss_50pct_s")
		if tss50 > 0 {
			b.ReportMetric(sdc50/tss50, "progressiveness_x")
		}
	}
}

func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportPair(b, exp.Figure12(benchScale))
	}
}

func BenchmarkFigure13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportPair(b, exp.Figure13(benchScale))
	}
}

func BenchmarkFigure14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportPair(b, exp.Figure14(benchScale))
	}
}

// BenchmarkAblations measures the sTSS/dTSS optimisation variants.
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := exp.Ablations(benchScale * 5)
		for _, r := range rows {
			b.ReportMetric(r.TotalSec, r.Series+"_s")
		}
	}
}

// --- substrate micro-benchmarks ---------------------------------------------

func benchDomain(h int, d float64) *poset.Domain {
	rng := rand.New(rand.NewSource(3))
	return poset.MustDomain(data.Lattice(rng, h, d))
}

// BenchmarkDomainBuild measures the per-query preprocessing cost of
// dTSS: topological sort, spanning tree, interval propagation.
func BenchmarkDomainBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	dag := data.Lattice(rng, 8, 0.8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := poset.NewDomain(dag); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTPreference measures the exact stabbing check against the
// paper-literal ∀-interval containment check.
func BenchmarkTPreference(b *testing.B) {
	dm := benchDomain(8, 0.8)
	n := dm.Size()
	b.Run("stab", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			x := int32(i % n)
			y := int32((i % n * 7) % n)
			_ = dm.TPrefers(x, y)
		}
	})
	b.Run("containment", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			x := int32(i % n)
			y := int32((i % n * 7) % n)
			_ = dm.TPrefersContainment(x, y)
		}
	})
}

// BenchmarkOrdRangeIntervals measures MBB interval lookup with and
// without the dyadic index (§IV-B first optimisation).
func BenchmarkOrdRangeIntervals(b *testing.B) {
	plain := benchDomain(8, 0.8)
	indexed := benchDomain(8, 0.8)
	indexed.EnableDyadic()
	n := int32(plain.Size())
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lo := int32(i) % (n / 2)
			_ = plain.OrdRangeIntervals(lo, lo+n/2)
		}
	})
	b.Run("dyadic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lo := int32(i) % (n / 2)
			_ = indexed.OrdRangeIntervals(lo, lo+n/2)
		}
	})
}

// BenchmarkRTree measures the index substrate: bulk load and boolean
// range queries.
func BenchmarkRTree(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	pts := make([]rtree.Point, 50_000)
	for i := range pts {
		pts[i] = rtree.Point{
			Coords: []int32{int32(rng.Intn(10_000)), int32(rng.Intn(10_000)), int32(rng.Intn(256))},
			ID:     int32(i),
		}
	}
	b.Run("bulkload-50k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = rtree.BulkLoad(3, append([]rtree.Point(nil), pts...), 128, nil)
		}
	})
	tr := rtree.BulkLoad(3, append([]rtree.Point(nil), pts...), 128, nil)
	b.Run("boolrange", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lo := []int32{int32(i % 5000), int32(i % 5000), 0}
			hi := []int32{lo[0] + 200, lo[1] + 200, 255}
			_ = tr.RangeNonEmpty(lo, hi)
		}
	})
}

// BenchmarkSTSSEndToEnd measures one default-configuration static run
// at N=10K for each checker configuration, then the first ten emissions
// of a cursor that bulk-loads its index per query against one over a
// resident index.
func BenchmarkSTSSEndToEnd(b *testing.B) {
	cfg := exp.StaticDefaults(0.01)
	cfg.Dist = data.AntiCorrelated
	ds := exp.BuildDataset(cfg)
	for _, v := range []struct {
		name string
		opt  core.Options
	}{
		{"list", core.Options{}},
		{"memtree", core.Options{UseMemTree: true}},
		{"memtree-stab", core.Options{UseMemTree: true, StabOnly: true}},
	} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := core.STSS(ds, v.opt)
				b.ReportMetric(float64(res.Metrics.DomChecks), "checks")
			}
		})
	}
	first10 := func(cur *core.Cursor) {
		for k := 0; k < 10; k++ {
			if _, ok := cur.Next(); !ok {
				return
			}
		}
	}
	b.Run("first10/build-per-query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			first10(core.NewSTSSCursor(ds, core.Options{}))
		}
	})
	b.Run("first10/resident", func(b *testing.B) {
		ix := core.BuildSTSSIndex(ds, core.Options{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			first10(ix.Cursor(core.Options{}))
		}
	})
}

// BenchmarkDynamicQuery measures one dTSS query (domain preprocessing
// included) against the rebuild baseline at N=10K.
func BenchmarkDynamicQuery(b *testing.B) {
	cfg := exp.DynamicDefaults(0.01)
	cfg.Dist = data.AntiCorrelated
	ds := exp.BuildDataset(cfg)
	db := core.NewDynamicDB(ds, core.Options{})
	b.Run("dTSS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			domains := exp.QueryDomains(cfg, ds, i)
			if _, err := db.QueryTSS(domains, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rebuild-SDC+", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			domains := exp.QueryDomains(cfg, ds, i)
			if _, err := core.DynamicSDCPlus(ds, domains, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
