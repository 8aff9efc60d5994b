package exp

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/data"
)

// Row is one measurement: a (figure, series, x) cell of a paper plot.
type Row struct {
	Figure   string  // e.g. "7a"
	Series   string  // "TSS" or "SDC+"
	X        string  // the swept parameter's value
	TotalSec float64 // paper's headline metric: CPU + IOs×IOCost
	CPUSec   float64
	IOs      int64
	CPUShare float64 // CPU / total (the Figure 7 marker annotations)
	Skyline  int
	Checks   int64
}

func rowFrom(fig, series, x string, cfg Config, m *core.Metrics, skyline int) Row {
	return Row{
		Figure:   fig,
		Series:   series,
		X:        x,
		TotalSec: m.TotalTime(cfg.IOCost).Seconds(),
		CPUSec:   m.CPU.Seconds(),
		IOs:      m.ReadIOs + m.WriteIOs,
		CPUShare: m.CPUShare(cfg.IOCost),
		Skyline:  skyline,
		Checks:   m.DomChecks,
	}
}

// runStaticPair runs the paper's static contenders — SDC+ (the
// strongest baseline) and TSS (sTSS without the memtree, as in §VI-B
// "for fairness") — on one configuration. Every TSS and dTSS leg of the
// figures passes NoKernel: the paper counts candidate-list checks, so
// the figures run the bare list checker, not the serving cursor's
// kernel checker.
func runStaticPair(fig, x string, cfg Config) []Row {
	ds := BuildDataset(cfg)
	sdc := core.SDCPlus(ds, core.Options{})
	tss := core.STSS(ds, core.Options{NoKernel: true})
	if !sameSet(sdc.SkylineIDs, tss.SkylineIDs) {
		panic(fmt.Sprintf("exp: SDC+ and TSS disagree on %s x=%s", fig, x))
	}
	return []Row{
		rowFrom(fig, "SDC+", x, cfg, &sdc.Metrics, len(sdc.SkylineIDs)),
		rowFrom(fig, "TSS", x, cfg, &tss.Metrics, len(tss.SkylineIDs)),
	}
}

// runDynamicPair runs the dynamic contenders — the rebuild-per-query
// SDC+ adaptation and dTSS — averaged over cfg.Queries random partial
// orders (the same orders for both methods).
func runDynamicPair(fig, x string, cfg Config) []Row {
	ds := BuildDataset(cfg)
	db := core.NewDynamicDB(ds, core.Options{})
	var mS, mT core.Metrics
	var skyS, skyT int
	for q := 0; q < cfg.Queries; q++ {
		domains := QueryDomains(cfg, ds, q)
		rs, err := core.DynamicSDCPlus(ds, domains, core.Options{})
		if err != nil {
			panic(err)
		}
		rt, err := db.QueryTSS(domains, core.Options{NoKernel: true})
		if err != nil {
			panic(err)
		}
		if !sameSet(rs.SkylineIDs, rt.SkylineIDs) {
			panic(fmt.Sprintf("exp: dynamic SDC+ and dTSS disagree on %s x=%s q=%d", fig, x, q))
		}
		accumulate(&mS, &rs.Metrics)
		accumulate(&mT, &rt.Metrics)
		skyS += len(rs.SkylineIDs)
		skyT += len(rt.SkylineIDs)
	}
	divide(&mS, cfg.Queries)
	divide(&mT, cfg.Queries)
	return []Row{
		rowFrom(fig, "SDC+", x, cfg, &mS, skyS/cfg.Queries),
		rowFrom(fig, "TSS", x, cfg, &mT, skyT/cfg.Queries),
	}
}

func accumulate(dst, src *core.Metrics) {
	dst.ReadIOs += src.ReadIOs
	dst.WriteIOs += src.WriteIOs
	dst.DomChecks += src.DomChecks
	dst.CPU += src.CPU
	dst.NodesOpened += src.NodesOpened
	dst.NodesPruned += src.NodesPruned
}

func divide(m *core.Metrics, q int) {
	if q == 0 {
		return
	}
	m.ReadIOs /= int64(q)
	m.WriteIOs /= int64(q)
	m.DomChecks /= int64(q)
	m.CPU /= time.Duration(q)
}

func sameSet(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	m := make(map[int32]bool, len(a))
	for _, id := range a {
		m[id] = true
	}
	for _, id := range b {
		if !m[id] {
			return false
		}
	}
	return true
}

// cardinalities mirrors the paper's N sweep {100K, 500K, 1M, 5M, 10M}.
var cardinalities = []struct {
	label string
	n     int
}{
	{"100K", 100_000}, {"500K", 500_000}, {"1M", 1_000_000},
	{"5M", 5_000_000}, {"10M", 10_000_000},
}

// dimensionalities mirrors the paper's (|TO|,|PO|) sweep.
var dimensionalities = [][2]int{{2, 1}, {3, 1}, {4, 1}, {2, 2}, {3, 2}, {4, 2}}

// Figure7 — static: total time vs data cardinality, Independent (7a)
// and Anti-correlated (7b), with CPU-share annotations.
func Figure7(scale float64) []Row {
	var rows []Row
	for _, dist := range []data.Distribution{data.Independent, data.AntiCorrelated} {
		fig := "7a"
		if dist == data.AntiCorrelated {
			fig = "7b"
		}
		for _, c := range cardinalities {
			cfg := StaticDefaults(scale)
			cfg.N = scaled(c.n, scale)
			cfg.Dist = dist
			rows = append(rows, runStaticPair(fig, c.label, cfg)...)
		}
	}
	return rows
}

// Figure8 — static: total time vs dimensionality (|TO|,|PO|).
func Figure8(scale float64) []Row {
	var rows []Row
	for _, dist := range []data.Distribution{data.Independent, data.AntiCorrelated} {
		fig := "8a"
		if dist == data.AntiCorrelated {
			fig = "8b"
		}
		for _, dim := range dimensionalities {
			cfg := StaticDefaults(scale)
			cfg.TO, cfg.PO = dim[0], dim[1]
			cfg.Dist = dist
			x := fmt.Sprintf("%d,%d", dim[0], dim[1])
			rows = append(rows, runStaticPair(fig, x, cfg)...)
		}
	}
	return rows
}

// Figure9 — static: total time vs DAG height h ∈ {2,4,6,8,10}.
func Figure9(scale float64) []Row {
	var rows []Row
	for _, dist := range []data.Distribution{data.Independent, data.AntiCorrelated} {
		fig := "9a"
		if dist == data.AntiCorrelated {
			fig = "9b"
		}
		for _, h := range []int{2, 4, 6, 8, 10} {
			cfg := StaticDefaults(scale)
			cfg.H = h
			cfg.Dist = dist
			rows = append(rows, runStaticPair(fig, fmt.Sprint(h), cfg)...)
		}
	}
	return rows
}

// Figure10 — static: total time vs DAG density d ∈ {0.2,…,1}.
func Figure10(scale float64) []Row {
	var rows []Row
	for _, dist := range []data.Distribution{data.Independent, data.AntiCorrelated} {
		fig := "10a"
		if dist == data.AntiCorrelated {
			fig = "10b"
		}
		for _, d := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
			cfg := StaticDefaults(scale)
			cfg.D = d
			cfg.Dist = dist
			rows = append(rows, runStaticPair(fig, fmt.Sprintf("%.1f", d), cfg)...)
		}
	}
	return rows
}

// ProgressRow is one point of the progressiveness curves (Figure 11):
// the virtual time at which pct% of the skyline had been emitted.
type ProgressRow struct {
	Figure string
	Series string
	Pct    int
	Sec    float64
}

// Figure11 — static progressiveness: time to retrieve each decile of
// the skyline, SDC+ (burst emission per stratum) vs TSS (optimally
// progressive).
func Figure11(scale float64) []ProgressRow {
	var rows []ProgressRow
	for _, dist := range []data.Distribution{data.Independent, data.AntiCorrelated} {
		fig := "11a"
		if dist == data.AntiCorrelated {
			fig = "11b"
		}
		cfg := StaticDefaults(scale)
		cfg.Dist = dist
		ds := BuildDataset(cfg)
		sdc := core.SDCPlus(ds, core.Options{})
		tss := core.STSS(ds, core.Options{NoKernel: true})
		rows = append(rows, progressCurve(fig, "SDC+", cfg, sdc)...)
		rows = append(rows, progressCurve(fig, "TSS", cfg, tss)...)
	}
	return rows
}

func progressCurve(fig, series string, cfg Config, res *core.Result) []ProgressRow {
	n := len(res.Metrics.Emissions)
	var rows []ProgressRow
	if n == 0 {
		return rows
	}
	for pct := 10; pct <= 100; pct += 10 {
		k := (n*pct + 99) / 100
		if k < 1 {
			k = 1
		}
		e := res.Metrics.Emissions[k-1]
		rows = append(rows, ProgressRow{
			Figure: fig,
			Series: series,
			Pct:    pct,
			Sec:    e.Time(cfg.IOCost).Seconds(),
		})
	}
	return rows
}

// Figure12 — dynamic: total time per query vs data cardinality.
func Figure12(scale float64) []Row {
	var rows []Row
	for _, dist := range []data.Distribution{data.Independent, data.AntiCorrelated} {
		fig := "12a"
		if dist == data.AntiCorrelated {
			fig = "12b"
		}
		for _, c := range cardinalities {
			cfg := DynamicDefaults(scale)
			cfg.N = scaled(c.n, scale)
			cfg.Dist = dist
			rows = append(rows, runDynamicPair(fig, c.label, cfg)...)
		}
	}
	return rows
}

// Figure13 — dynamic: total time per query vs dimensionality.
func Figure13(scale float64) []Row {
	var rows []Row
	for _, dist := range []data.Distribution{data.Independent, data.AntiCorrelated} {
		fig := "13a"
		if dist == data.AntiCorrelated {
			fig = "13b"
		}
		for _, dim := range dimensionalities {
			cfg := DynamicDefaults(scale)
			cfg.TO, cfg.PO = dim[0], dim[1]
			cfg.Dist = dist
			x := fmt.Sprintf("%d,%d", dim[0], dim[1])
			rows = append(rows, runDynamicPair(fig, x, cfg)...)
		}
	}
	return rows
}

// Figure14 — dynamic, Anti-correlated: total time vs DAG height (14a)
// and density (14b).
func Figure14(scale float64) []Row {
	var rows []Row
	for _, h := range []int{2, 4, 6, 8, 10} {
		cfg := DynamicDefaults(scale)
		cfg.H = h
		cfg.Dist = data.AntiCorrelated
		rows = append(rows, runDynamicPair("14a", fmt.Sprint(h), cfg)...)
	}
	for _, d := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
		cfg := DynamicDefaults(scale)
		cfg.D = d
		cfg.Dist = data.AntiCorrelated
		rows = append(rows, runDynamicPair("14b", fmt.Sprintf("%.1f", d), cfg)...)
	}
	return rows
}

// Ablations measures the effect of each sTSS/dTSS optimisation of the
// paper's §IV-B and §V-B — the in-memory dominance R-tree, the dyadic
// range index, dTSS's precomputed local skylines — and of this
// implementation's stab-only point check.
func Ablations(scale float64) []Row {
	var rows []Row
	cfg := StaticDefaults(scale)
	cfg.Dist = data.AntiCorrelated
	ds := BuildDataset(cfg)
	variants := []struct {
		name string
		opt  core.Options
	}{
		{"list/full/dyadic", core.Options{NoKernel: true}},
		{"list/full/nodyadic", core.Options{NoKernel: true, NoDyadic: true}},
		{"list/stab/dyadic", core.Options{NoKernel: true, StabOnly: true}},
		{"mem/full/dyadic", core.Options{UseMemTree: true}},
		{"mem/stab/dyadic", core.Options{UseMemTree: true, StabOnly: true}},
		{"list/full/buffered", core.Options{NoKernel: true, BufferPages: 1 << 14}},
	}
	var base []int32
	for _, v := range variants {
		res := core.STSS(ds, v.opt)
		if base == nil {
			base = res.SkylineIDs
		} else if !sameSet(base, res.SkylineIDs) {
			panic("exp: ablation variants disagree")
		}
		rows = append(rows, rowFrom("ablation-static", v.name, "default", cfg,
			&res.Metrics, len(res.SkylineIDs)))
	}

	dcfg := DynamicDefaults(scale)
	dcfg.Dist = data.AntiCorrelated
	dds := BuildDataset(dcfg)
	db := core.NewDynamicDB(dds, core.Options{})
	dvariants := []struct {
		name string
		opt  core.Options
	}{
		{"trees/list", core.Options{NoKernel: true}},
		{"trees/mem", core.Options{UseMemTree: true}},
		{"trees/buffered", core.Options{NoKernel: true, BufferPages: 1 << 14}},
		{"trees/packedroots", core.Options{NoKernel: true, PackedRoots: true}},
		{"local/list", core.Options{NoKernel: true, PrecomputedLocal: true}},
		{"local/mem", core.Options{PrecomputedLocal: true, UseMemTree: true}},
	}
	for _, v := range dvariants {
		var m core.Metrics
		sky := 0
		var want []int32
		for q := 0; q < dcfg.Queries; q++ {
			domains := QueryDomains(dcfg, dds, q)
			res, err := db.QueryTSS(domains, v.opt)
			if err != nil {
				panic(err)
			}
			if q == 0 {
				if want == nil {
					want = res.SkylineIDs
				}
			}
			accumulate(&m, &res.Metrics)
			sky += len(res.SkylineIDs)
		}
		divide(&m, dcfg.Queries)
		rows = append(rows, rowFrom("ablation-dynamic", v.name, "default", dcfg, &m, sky/dcfg.Queries))
	}

	// Query-result caching (§V-B): the second identical query is served
	// from the cache; its row shows the near-zero hit cost.
	db.EnableCache(4)
	domains := QueryDomains(dcfg, dds, 0)
	if _, err := db.QueryTSS(domains, core.Options{NoKernel: true}); err != nil {
		panic(err)
	}
	cached, err := db.QueryTSS(domains, core.Options{NoKernel: true})
	if err != nil {
		panic(err)
	}
	rows = append(rows, rowFrom("ablation-dynamic", "cache/hit", "default", dcfg,
		&cached.Metrics, len(cached.SkylineIDs)))
	return rows
}

// VerifyAgreement cross-checks every serving algorithm and paper
// baseline — sequential and behind the partition-and-merge executor —
// on a modest configuration; the harness-level integration test.
// PO-capable algorithms run on the mixed TO/PO dataset; every algorithm
// (the sort-based TO baselines included) runs on its TO projection.
func VerifyAgreement(scale float64) error {
	cfg := StaticDefaults(scale / 10)
	cfg.Dist = data.AntiCorrelated
	ds := BuildDataset(cfg)
	toDS := &core.Dataset{}
	for _, p := range ds.Pts {
		toDS.Pts = append(toDS.Pts, core.Point{ID: p.ID, TO: p.TO})
	}
	// Oracle: the O(n²) naive skyline while tractable; above that, sTSS
	// (itself property-tested against the naive oracle in core's tests).
	var want, toWant []int32
	oracle := "naive skyline"
	if len(ds.Pts) <= 20_000 {
		want = ds.NaiveSkyline()
		toWant = toDS.NaiveSkyline()
	} else {
		oracle = "sTSS oracle"
		want = core.STSS(ds, core.Options{}).SkylineIDs
		toWant = core.STSS(toDS, core.Options{}).SkylineIDs
	}
	for _, algo := range append(core.Algorithms(), core.Baselines()...) {
		if algo.Capabilities().POCapable {
			res, err := algo.Run(ds, core.Options{})
			if err != nil {
				return fmt.Errorf("exp: %s: %w", algo.Name(), err)
			}
			if !sameSet(res.SkylineIDs, want) {
				return fmt.Errorf("exp: %s disagrees with the %s (%d vs %d points)",
					algo.Name(), oracle, len(res.SkylineIDs), len(want))
			}
			pres, err := core.Parallel(algo).Run(ds, core.Options{Parallelism: 4})
			if err != nil {
				return fmt.Errorf("exp: parallel(%s): %w", algo.Name(), err)
			}
			if !sameSet(pres.SkylineIDs, want) {
				return fmt.Errorf("exp: parallel(%s) disagrees with the %s (%d vs %d points)",
					algo.Name(), oracle, len(pres.SkylineIDs), len(want))
			}
		}
		res, err := algo.Run(toDS, core.Options{})
		if err != nil {
			return fmt.Errorf("exp: %s on TO projection: %w", algo.Name(), err)
		}
		if !sameSet(res.SkylineIDs, toWant) {
			return fmt.Errorf("exp: %s disagrees with the %s on the TO projection", algo.Name(), oracle)
		}
		pres, err := core.Parallel(algo).Run(toDS, core.Options{Parallelism: 4})
		if err != nil {
			return fmt.Errorf("exp: parallel(%s) on TO projection: %w", algo.Name(), err)
		}
		if !sameSet(pres.SkylineIDs, toWant) {
			return fmt.Errorf("exp: parallel(%s) disagrees with the %s on the TO projection", algo.Name(), oracle)
		}
	}
	// The stss leg above runs the kernel checker; the paper's list
	// checker and memtree must agree with it.
	if res := core.STSS(ds, core.Options{NoKernel: true}); !sameSet(res.SkylineIDs, want) {
		return fmt.Errorf("exp: sTSS with the list checker disagrees with the %s", oracle)
	}
	if res := core.STSS(ds, core.Options{UseMemTree: true}); !sameSet(res.SkylineIDs, want) {
		return fmt.Errorf("exp: sTSS with memtree disagrees with the %s", oracle)
	}
	db := core.NewDynamicDB(ds, core.Options{})
	for q := 0; q < 2; q++ {
		domains := QueryDomains(cfg, ds, q)
		rs, err := core.DynamicSDCPlus(ds, domains, core.Options{})
		if err != nil {
			return err
		}
		for _, opt := range []core.Options{{NoKernel: true}, {}} {
			rt, err := db.QueryTSS(domains, opt)
			if err != nil {
				return err
			}
			if !sameSet(rt.SkylineIDs, rs.SkylineIDs) {
				return fmt.Errorf("exp: dynamic methods disagree on query %d (dTSS NoKernel=%v)", q, opt.NoKernel)
			}
		}
	}
	return nil
}

// HeadlineShapes checks the paper's two headline claims at a given
// scale: (1) static — TSS strictly beats SDC+ in total time at the
// default configuration; (2) dynamic — TSS beats the rebuilding SDC+
// and the gap at this N is at least `minDynamicGap`. Used by tests as a
// regression guard on the reproduction itself.
func HeadlineShapes(scale, minDynamicGap float64) error {
	cfg := StaticDefaults(scale)
	cfg.Dist = data.AntiCorrelated
	rows := runStaticPair("headline-static", "default", cfg)
	var sdc, tss float64
	for _, r := range rows {
		if r.Series == "SDC+" {
			sdc = r.TotalSec
		} else {
			tss = r.TotalSec
		}
	}
	if tss >= sdc {
		return fmt.Errorf("exp: static headline violated: TSS %.3fs vs SDC+ %.3fs", tss, sdc)
	}
	dcfg := DynamicDefaults(scale)
	dcfg.Dist = data.AntiCorrelated
	dcfg.Queries = 2
	drows := runDynamicPair("headline-dynamic", "default", dcfg)
	sdc, tss = 0, 0
	for _, r := range drows {
		if r.Series == "SDC+" {
			sdc = r.TotalSec
		} else {
			tss = r.TotalSec
		}
	}
	if tss <= 0 || sdc/tss < minDynamicGap {
		return fmt.Errorf("exp: dynamic headline violated: gap %.2fx < %.2fx (TSS %.3fs, SDC+ %.3fs)",
			sdc/tss, minDynamicGap, tss, sdc)
	}
	return nil
}
