package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/poset"
	"repro/internal/rtree"
	"repro/internal/serve"
	"repro/internal/store"
)

// probeReps is how often a direct probe repeats a call; the metric is
// the median.
const probeReps = 5

// timeMs returns the median duration of reps calls of fn, in ms.
func timeMs(reps int, fn func()) float64 {
	durs := make([]float64, reps)
	for i := range durs {
		start := time.Now()
		fn()
		durs[i] = ms(time.Since(start))
	}
	return median(durs)
}

// probes are the direct calls into one layer each that the ladders do
// not cover. Each runs on the table of the workload the metric should
// move: cs, qc (static and dynamic), sc and cl.
func probes(e env, cs, qc, qcDyn, sc, cl *table, seed int64) ([]layerMetric, error) {
	var out []layerMetric
	out = append(out, posetProbes(qc, seed)...)
	out = append(out, rtreeProbes(cs, seed)...)
	out = append(out, cursorProbes(cs)...)
	out = append(out,
		layerMetric{"core.dynamic.prepare_ms", timeMs(probeReps, func() { core.NewDynamicDB(qcDyn.ds, core.Options{}) }), "ms"},
		layerMetric{"plan.analyze_ms", timeMs(probeReps, func() { plan.Analyze(qc.ds) }), "ms"},
	)
	env := plan.Env{Stats: plan.Analyze(qc.ds), Learned: plan.NewLearned()}
	out = append(out, layerMetric{"plan.new_us", usPerMs * timeMs(4*probeReps, func() {
		_, _ = plan.New(qc.ds, plan.Query{Hints: plan.Hints{NoCache: true}}, env)
	}), "us"})

	sky := oracleSkyline(qc.ds.Domains, qc.ds.Pts)
	qcSky := make([]int32, len(sky))
	for i, r := range sky {
		qcSky[i] = int32(r)
	}
	out = append(out, layerMetric{"core.scoreindex.build_ms", timeMs(3, func() { core.BuildScoreIndex(qc.ds, qcSky) }), "ms"})
	out = append(out, mergeProbe(cl))
	out = append(out, tssProbes(sc)...)
	out = append(out, serveProbes(sc)...)
	sm, err := storeProbes(e, sc, seed)
	if err != nil {
		return nil, err
	}
	return append(out, sm...), nil
}

// posetProbes time a PO domain's build and its two preference tests —
// the closure bitset (the kernels' path) and interval containment (the
// cursor's checker) — over a million seeded value pairs.
func posetProbes(t *table, seed int64) []layerMetric {
	dag := t.ds.Domains[0].DAG()
	build := timeMs(probeReps, func() { poset.MustDomain(dag.Clone()) })
	dom := poset.MustDomain(dag.Clone())
	dom.EnableClosure(0)
	const pairs = 1_000_000
	rng := rand.New(rand.NewSource(seed*17 + 5))
	xs, ys := make([]int32, pairs), make([]int32, pairs)
	for i := range xs {
		xs[i], ys[i] = int32(rng.Intn(dom.Size())), int32(rng.Intn(dom.Size()))
	}
	hits := 0
	perPair := func(test func(x, y int32) bool) float64 {
		return 1e6 * timeMs(probeReps, func() {
			for i := range xs {
				if test(xs[i], ys[i]) {
					hits++
				}
			}
		}) / pairs
	}
	closure, interval := perPair(dom.TPrefers), perPair(dom.TPrefersContainment)
	_ = hits
	return []layerMetric{
		{"poset.domain_build_us", build * usPerMs, "us"},
		{"poset.tprefers_ns", closure, "ns"},
		{"poset.tprefers_interval_ns", interval, "ns"},
	}
}

// rtreeProbes bulk-load the sTSS index of the table — TO values plus
// one topological ordinal per PO column, as the cursor builds it — and
// time Boolean range probes over seeded boxes.
func rtreeProbes(t *table, seed int64) []layerMetric {
	ds := t.ds
	dims := ds.NumTO() + ds.NumPO()
	coords := func(p *core.Point) []int32 {
		c := make([]int32, 0, dims)
		c = append(c, p.TO...)
		for d, v := range p.PO {
			c = append(c, ds.Domains[d].Ord(v))
		}
		return c
	}
	points := func() []rtree.Point {
		pts := make([]rtree.Point, len(ds.Pts))
		for i := range ds.Pts {
			pts[i] = rtree.Point{Coords: coords(&ds.Pts[i]), ID: int32(i)}
		}
		return pts
	}
	capacity := rtree.CapacityForPage(core.DefaultPageSize, dims)
	var tree *rtree.Tree
	load := timeMs(probeReps, func() { tree = rtree.BulkLoad(dims, points(), capacity, &rtree.IOCounter{}) })

	// Each box is the region a dominator of a seeded row would lie in,
	// cut to a twentieth of the TO domain below the row.
	const boxes = 20_000
	rng := rand.New(rand.NewSource(seed*19 + 3))
	los, his := make([][]int32, boxes), make([][]int32, boxes)
	for i := range los {
		hi := coords(&ds.Pts[rng.Intn(len(ds.Pts))])
		lo := make([]int32, dims)
		for d := 0; d < ds.NumTO(); d++ {
			if lo[d] = hi[d] - int32(t.cfg.TODomain/20); lo[d] < 0 {
				lo[d] = 0
			}
		}
		los[i], his[i] = lo, hi
	}
	never := func(rtree.Entry) bool { return false }
	probe := 1e6 * timeMs(probeReps, func() {
		for i := range los {
			tree.RangeExists(los[i], his[i], never)
		}
	}) / boxes
	return []layerMetric{
		{"rtree.bulkload_ms", load, "ms"},
		{"rtree.range_exists_ns", probe, "ns"},
	}
}

// cursorProbes split a cold full run of the sTSS cursor into its
// build, its first emission and the drain; the counts repeat exactly.
func cursorProbes(t *table) []layerMetric {
	ds := sealed(t.ds)
	var build, first, rest []float64
	var m core.Metrics
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		cur := core.NewSTSSCursor(ds, core.Options{UseMemTree: true})
		t1 := time.Now()
		cur.Next()
		t2 := time.Now()
		for {
			if _, ok := cur.Next(); !ok {
				break
			}
		}
		t3 := time.Now()
		build, first, rest = append(build, ms(t1.Sub(t0))), append(first, ms(t2.Sub(t1))), append(rest, ms(t3.Sub(t2)))
		m = cur.Metrics()
	}
	rows := float64(len(m.Emissions))
	if rows == 0 {
		rows = 1
	}
	return []layerMetric{
		{"core.cursor.build_ms", median(build), "ms"},
		{"core.cursor.first_ms", median(first), "ms"},
		{"core.cursor.drain_ms", median(rest), "ms"},
		{"core.cursor.domchecks_per_row", float64(m.DomChecks) / rows, "count"},
		{"core.cursor.nodes_opened", float64(m.NodesOpened), "count"},
	}
}

// mergeProbe times the coordinator's elimination pass over the union
// of two shard-local skylines. Rows are dealt to the shards by index
// parity, a stand-in for the coordinator's hash partitioner (which is
// not exported): both spread rows uniformly.
func mergeProbe(t *table) layerMetric {
	ds := sealed(t.ds)
	var union []core.Point
	var shard []int
	for s := 0; s < 2; s++ {
		var part []core.Point
		for i, p := range ds.Pts {
			if i%2 == s {
				part = append(part, p)
			}
		}
		for _, i := range oracleSkyline(ds.Domains, part) {
			union = append(union, part[i])
			shard = append(shard, s)
		}
	}
	return layerMetric{"core.merge.survivors_ms", timeMs(probeReps, func() { core.MergeSurvivors(ds.Domains, union, shard, 1) }), "ms"}
}

// tssProbes time sealing a freshly built table (the indexes are built
// once per compiled order, so every repetition compiles new orders).
func tssProbes(t *table) []layerMetric {
	durs := make([]float64, probeReps)
	for i := range durs {
		tb := unsealed(t)
		start := time.Now()
		tb.Seal()
		durs[i] = ms(time.Since(start))
	}
	return []layerMetric{{"tss.seal_ms", median(durs), "ms"}}
}

// serveProbes time a table create, the decode of a constrained request
// into a plan query, and the size of a full answer on the wire.
func serveProbes(t *table) []layerMetric {
	create := timeMs(probeReps, func() {
		if _, err := serve.New(0).CreateTable(t.spec); err != nil {
			panic(err) // the spec loaded on every ladder server already
		}
	})
	schema, err := serve.NewSchema(t.spec.TOColumns, t.spec.Orders)
	if err != nil {
		panic(err)
	}
	body := mustJSON(serve.QueryRequest{Explain: true, Where: whereTO0(t.bound)})
	decode := timeMs(200, func() {
		var req serve.QueryRequest
		if err := json.Unmarshal(body, &req); err == nil {
			_, _ = schema.PlanQuery(req)
		}
	})
	srv := serve.New(0)
	_, _ = srv.CreateTable(t.spec)
	full := query("full", serve.QueryRequest{Explain: true})
	rec, err := serveDirect(srv.Handler(), &full)
	perRow := 0.0
	if err == nil {
		if a, err := decodeBuffered(rec.Body.Bytes()); err == nil && len(a.rows) > 0 {
			perRow = float64(a.bytes) / float64(len(a.rows))
		}
	}
	return []layerMetric{
		{"serve.create_ms", create, "ms"},
		{"serve.decode_us", decode * usPerMs, "us"},
		{"serve.resp_bytes_per_row", perRow, "B"},
	}
}

// storeSnapshot renders a table in the storage engine's columnar form.
func storeSnapshot(t *table) *store.Snapshot {
	snap := &store.Snapshot{Schema: store.Schema{TOColumns: t.spec.TOColumns}}
	for d, o := range t.spec.Orders {
		os := store.OrderSchema{Name: o.Name, Values: o.Values}
		dag := t.ds.Domains[d].DAG()
		for v := 0; v < dag.N(); v++ {
			for _, u := range dag.Out(v) {
				os.Edges = append(os.Edges, [2]int32{int32(v), u})
			}
		}
		snap.Schema.Orders = append(snap.Schema.Orders, os)
	}
	snap.Rows = storeRows(t.ds.Pts, t.ds.NumTO(), t.ds.NumPO())
	return snap
}

func storeRows(pts []core.Point, nTO, nPO int) store.Rows {
	rows := store.Rows{TO: make([][]int64, nTO), PO: make([][]int32, nPO)}
	for _, p := range pts {
		for d, v := range p.TO {
			rows.TO[d] = append(rows.TO[d], int64(v))
		}
		for d, v := range p.PO {
			rows.PO[d] = append(rows.PO[d], v)
		}
	}
	return rows
}

// storeProbes drive a store.Disk with fsync on, as serve-churn's node
// has it: WAL appends of the writer's four-row batches, a checkpoint,
// and a recovery over the snapshot plus a WAL tail.
func storeProbes(e env, t *table, seed int64) ([]layerMetric, error) {
	dir, err := tempDir(e.out, "trace-store-")
	if err != nil {
		return nil, err
	}
	disk, err := store.OpenDisk(dir, store.DiskOptions{})
	if err != nil {
		return nil, err
	}
	defer disk.Close()
	snap := storeSnapshot(t)
	encoded, err := store.EncodeSnapshot(snap)
	if err != nil {
		return nil, err
	}
	var ckpt []float64
	for i := 0; i < probeReps; i++ {
		start := time.Now()
		if err := disk.SaveSnapshot("t", snap); err != nil {
			return nil, err
		}
		ckpt = append(ckpt, ms(time.Since(start)))
	}

	const appends, batchRows = 40, 4
	rng := rand.New(rand.NewSource(seed*23 + 1))
	var appendMs []float64
	for v := int64(1); v <= appends; v++ {
		add := make([]core.Point, batchRows)
		for i := range add {
			add[i] = randomPoint(rng, t.cfg, t.ds.Domains)
		}
		m := &store.Mutation{Version: v, Add: storeRows(add, t.ds.NumTO(), t.ds.NumPO())}
		start := time.Now()
		if err := disk.AppendMutation("t", m); err != nil {
			return nil, err
		}
		appendMs = append(appendMs, ms(time.Since(start)))
	}
	logSize, err := disk.LogSize("t")
	if err != nil {
		return nil, err
	}

	var recoverMs []float64
	for i := 0; i < probeReps; i++ {
		start := time.Now()
		d2, err := store.OpenDisk(dir, store.DiskOptions{})
		if err != nil {
			return nil, err
		}
		_, err = d2.Load("t")
		recoverMs = append(recoverMs, ms(time.Since(start)))
		d2.Close()
		if err != nil {
			return nil, err
		}
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	return []layerMetric{
		{"store.wal_append_us", median(appendMs) * usPerMs, "us"},
		{"store.wal_bytes_per_row", float64(logSize) / (appends * batchRows), "B"},
		{"store.checkpoint_ms", median(ckpt), "ms"},
		{"store.snapshot_bytes_per_row", float64(len(encoded)) / float64(len(t.ds.Pts)), "B"},
		{"store.recover_ms", median(recoverMs), "ms"},
	}, nil
}
