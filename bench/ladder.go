package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	tss "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/store"
)

// node is an in-process server at depths d0 (over HTTP) and d1 (its
// handler called directly).
type node struct {
	handler http.Handler
	ts      *httptest.Server
	c       *client
}

func newNode(h http.Handler) *node {
	ts := httptest.NewServer(h)
	return &node{handler: h, ts: ts, c: newClient(ts.URL)}
}

func (n *node) close() {
	n.c.close()
	n.ts.Close()
}

// viaHTTP is depth d0: the op through the in-process HTTP server, on
// the same timed path the end-to-end run uses.
func (n *node) viaHTTP(o *op) func() error {
	return func() error {
		_, err := n.c.do(o, nil)
		return err
	}
}

// viaHandler is depth d1: the handler with a recorder, no sockets.
func viaHandler(h http.Handler, o *op) func() error {
	return func() error {
		_, err := serveDirect(h, o)
		return err
	}
}

func serveDirect(h http.Handler, o *op) (*httptest.ResponseRecorder, error) {
	req := httptest.NewRequest(o.method, o.path, bytes.NewReader(o.body))
	if o.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code/100 != 2 {
		return nil, fmt.Errorf("HTTP %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return rec, nil
}

// load creates a fixture's tables on an in-process server.
func load(srv *serve.Server, tables []*table) error {
	for _, t := range tables {
		if _, err := srv.CreateTable(t.spec); err != nil {
			return err
		}
	}
	return nil
}

// newOrder compiles a preference order from value labels and edges.
func newOrder(values []string, edges [][2]string) *tss.Order {
	o := tss.NewOrder(values...)
	for _, e := range edges {
		o.Prefer(e[0], e[1])
	}
	return o
}

// unsealed builds the tss.Table a server builds from the spec, up to
// the point where it would seal it.
func unsealed(t *table) *tss.Table {
	orders := make([]*tss.Order, len(t.spec.Orders))
	for d, o := range t.spec.Orders {
		orders[d] = newOrder(o.Values, o.Edges)
	}
	tb := tss.NewTable(t.spec.TOColumns, orders...)
	for _, r := range t.spec.Rows {
		tb.MustAdd(r.TO, r.PO...)
	}
	return tb
}

// facade is the table as a server publishes it: sealed, with a memo.
func facade(t *table) *tss.Table {
	tb := unsealed(t).Seal()
	tb.SetQueryCache(plan.NewMemoCache())
	return tb
}

// sealed gives the dataset's own domains the indexes Table.Seal builds,
// so the plan- and core-depth calls run what a served table runs.
func sealed(ds *core.Dataset) *core.Dataset {
	for _, dom := range ds.Domains {
		dom.EnableDyadic()
		dom.EnableClosure(0)
	}
	return ds
}

// planner is depth d3's context: the dataset with its statistics, the
// feedback store and a memo.
type planner struct {
	ds  *core.Dataset
	env plan.Env
}

func newPlanner(ds *core.Dataset) *planner {
	return &planner{ds: sealed(ds), env: plan.Env{Stats: plan.Analyze(ds), Learned: plan.NewLearned(), Cache: plan.NewMemoCache()}}
}

func (p *planner) run(q plan.Query) (*plan.Plan, *core.Result, error) {
	pl, err := plan.New(p.ds, q, p.env)
	if err != nil {
		return nil, nil, err
	}
	res, err := pl.Run(context.Background(), p.ds, p.env)
	return pl, res, err
}

func (p *planner) runStream(q plan.Query) (*plan.Plan, error) {
	pl, err := plan.New(p.ds, q, p.env)
	if err != nil {
		return nil, err
	}
	_, err = pl.RunStream(context.Background(), p.ds, p.env, func(plan.StreamRow) error { return nil })
	return pl, err
}

// planQueries translates a cycle's request bodies into plan queries
// through the table's schema, off the timer.
func planQueries(t *table, ops []op) ([]plan.Query, error) {
	schema, err := serve.NewSchema(t.spec.TOColumns, t.spec.Orders)
	if err != nil {
		return nil, err
	}
	qs := make([]plan.Query, len(ops))
	for i, o := range ops {
		var req serve.QueryRequest
		if err := json.Unmarshal(o.body, &req); err != nil {
			return nil, err
		}
		if qs[i], err = schema.PlanQuery(req); err != nil {
			return nil, err
		}
	}
	return qs, nil
}

// filtered is the dataset a push-down plan runs its algorithm on: the
// rows within the constrained bound, ids preserved.
func filtered(ds *core.Dataset, bound int64) *core.Dataset {
	eff := &core.Dataset{Domains: ds.Domains}
	for _, p := range ds.Pts {
		if int64(p.TO[0]) <= bound {
			eff.Pts = append(eff.Pts, p)
		}
	}
	return eff
}

// drain pulls up to k ids from a fresh sTSS cursor (k = 0: all).
func drain(ds *core.Dataset, k int) *core.Cursor {
	cur := core.NewSTSSCursor(ds, core.Options{UseMemTree: true})
	for n := 0; k == 0 || n < k; n++ {
		if _, ok := cur.Next(); !ok {
			break
		}
	}
	return cur
}

// checkFull compares a node's full answer with the oracle on ds: the
// ladder's own correctness gate, one op per workload.
func checkFull(t *tracer, workload string, n *node, o op, ds *core.Dataset) {
	t.ops++
	a, err := n.c.fetch(&o)
	if err == nil {
		err = sameMultiset(multiset(a.rows), pointMultiset(ds.Pts, oracleSkyline(ds.Domains, ds.Pts)))
	}
	if err != nil {
		t.errs = append(t.errs, fmt.Errorf("%s: oracle: %w", workload, err))
	}
}

const usPerMs = 1000.0

// ladderCursorStream climbs cursor-stream's stream classes down to the
// sTSS cursor. The cycle's buffered reads are the classes of
// serve-churn's reader and are climbed there.
func ladderCursorStream(t *tracer, fix *fixture, cycles int) ([]layerMetric, error) {
	tb := fix.tables[0]
	ops := fix.ops
	qs, err := planQueries(tb, ops)
	if err != nil {
		return nil, err
	}
	srv := serve.New(0)
	if err := load(srv, fix.tables); err != nil {
		return nil, err
	}
	n := newNode(srv.Handler())
	defer n.close()
	fac := facade(tb)
	pl := newPlanner(tb.ds)

	discard := func(plan.StreamRow) error { return nil }
	for c := 0; c < cycles; c++ {
		for i := range ops {
			o, q := &ops[i], qs[i]
			if !o.stream {
				continue
			}
			tr := t.op(csName, o.class)
			tr.at(d0, "POST /tables/t/query?stream=1", n.viaHTTP(o))
			tr.at(d1, "serve.Server.Handler.ServeHTTP", viaHandler(n.handler, o))
			tr.at(d2, "tss.Table.QueryStream", func() error {
				_, _, err := fac.QueryStream(context.Background(), q, discard)
				return err
			})
			tr.at(d3, "plan.New+Plan.RunStream", func() error {
				_, err := pl.runStream(q)
				return err
			})
			tr.at(d4, "core.NewSTSSCursor+Next", func() error {
				if o.class == "firstk" {
					drain(pl.ds, topK)
				} else {
					drain(pl.ds, 0)
				}
				return nil
			})
		}
	}
	checkFull(t, csName, n, ops[0], tb.ds)
	return nil, nil
}

// ladderQueryCold climbs query-cold's buffered classes down to the
// algorithm the plan chose, and the dynamic class down to dTSS.
func ladderQueryCold(t *tracer, fix *fixture, cycles int, seed int64) ([]layerMetric, error) {
	tb, dyn := fix.tables[0], fix.tables[1]
	ops := fix.ops
	qs, err := planQueries(tb, ops)
	if err != nil {
		return nil, err
	}
	// d0 and d1 each have a server: the second of two identical dynamic
	// requests to one server would be a dTSS result-cache hit.
	var handlers [2]http.Handler
	for i := range handlers {
		srv := serve.New(0)
		if err := load(srv, fix.tables); err != nil {
			return nil, err
		}
		handlers[i] = srv.Handler()
	}
	n := newNode(handlers[0])
	defer n.close()
	fac := facade(tb)
	pl := newPlanner(tb.ds)
	eff := filtered(pl.ds, tb.bound)

	prepared := facade(dyn).PrepareDynamic()
	db := core.NewDynamicDB(sealed(dyn.ds), core.Options{})
	rng := rand.New(rand.NewSource(seed*31 + 7))

	var algoName string
	for c := 0; c < cycles; c++ {
		for i := range ops {
			o, q := &ops[i], qs[i]
			tr := t.op(qcName, o.class)
			tr.at(d0, "POST /tables/t/query", n.viaHTTP(o))
			tr.at(d1, "serve.Server.Handler.ServeHTTP", viaHandler(handlers[1], o))
			tr.at(d2, "tss.Table.QueryContext", func() error {
				_, _, err := fac.QueryContext(context.Background(), q)
				return err
			})
			var chosen *plan.Plan
			tr.at(d3, "plan.New+Plan.Run", func() error {
				var err error
				chosen, _, err = pl.run(q)
				return err
			})
			if chosen == nil {
				continue
			}
			ex := &chosen.Explain
			if o.class == "full" {
				algoName = ex.Algorithm
			}
			algo, ok := core.Lookup(ex.Algorithm)
			if !ok {
				t.errs = append(t.errs, fmt.Errorf("%s/%s: plan names unknown algorithm %q", qcName, o.class, ex.Algorithm))
				continue
			}
			on := pl.ds
			if ex.Route == plan.RoutePushdown {
				on = eff
			}
			tr.at(d4, "core.Algorithm.Run("+ex.Algorithm+")", func() error {
				_, err := algo.Run(on, core.Options{UseMemTree: true})
				return err
			})
		}

		// A fresh DAG set per op, as in the end-to-end cycle.
		wire, dags := queryOrders(rng, dyn.ds.Domains)
		doms := compile(dags)
		o := query("dynamic", serve.QueryRequest{Orders: wire})
		o.path = "/tables/d/query"
		orders := make([]*tss.Order, len(wire))
		for d, qo := range wire {
			orders[d] = newOrder(dyn.spec.Orders[d].Values, qo.Edges)
		}
		tr := t.op(qcName, "dynamic")
		tr.at(d0, "POST /tables/d/query", n.viaHTTP(&o))
		tr.at(d1, "serve.Server.Handler.ServeHTTP", viaHandler(handlers[1], &o))
		tr.at(d2, "tss.Dynamic.QueryContext", func() error {
			_, err := prepared.QueryContext(context.Background(), orders...)
			return err
		})
		tr.at(d4, "core.DynamicDB.QueryTSSContext", func() error {
			_, err := db.QueryTSSContext(context.Background(), doms, core.Options{UseMemTree: true})
			return err
		})
	}
	checkFull(t, qcName, n, ops[0], tb.ds)

	ms := []layerMetric{
		{"plan.run_self_ms.full", t.self(qcName, "full", d3, d4), "ms"},
		{"plan.run_self_ms.constrained", t.self(qcName, "constrained", d3, d4), "ms"},
		// What ranking adds to a cold plan: the top-k plan beside the
		// full one, whose skyline run it shares.
		{"plan.rank_dpidp_ms", math.Max(0, t.depthMedian(qcName, "topk", d3)-t.depthMedian(qcName, "full", d3)), "ms"},
		{"core.dynamic.query_ms", t.depthMedian(qcName, "dynamic", d4), "ms"},
	}
	return append(ms, algoProbe(pl.ds, algoName)...), nil
}

// algoProbe times the plan's algorithm for the full query and reads
// the kernel counters around one run; the counts repeat exactly.
func algoProbe(ds *core.Dataset, name string) []layerMetric {
	algo, ok := core.Lookup(name)
	if !ok {
		return nil
	}
	var durs []float64
	var tests, skips int64
	for i := 0; i < 5; i++ {
		t0, s0 := core.KernelCounters()
		start := time.Now()
		_, _ = algo.Run(ds, core.Options{UseMemTree: true}) // ran cleanly on the ladder already
		durs = append(durs, ms(time.Since(start)))
		t1, s1 := core.KernelCounters()
		tests, skips = t1-t0, s1-s0
	}
	fmt.Printf("core.algo.full_ms algorithm %s\n", name)
	return []layerMetric{
		{"core.algo.full_ms", median(durs), "ms"},
		{"core.kernel.domtests", float64(tests), "count"},
		{"core.kernel.blockskips", float64(skips), "count"},
	}
}

// churnState is serve-churn's state at the depths below the handler:
// the facade pair a server publishes (d2), the planner with its memo
// (d3) and the maintained skyline with its score index (d4). All three
// start from the same rows and see the same batches.
type churnState struct {
	table *tss.Table
	dyn   *tss.Dynamic
	pl    *planner
	sky   []int32
	ix    *core.ScoreIndex
}

// ladderServeChurn climbs the reader's warm classes down to the memo
// hit and the writer's batches down to skyline maintenance. A batch can
// be applied to a state once, so d0 and d1 each have a durable server
// of their own.
func ladderServeChurn(e env, t *tracer, fix *fixture, cycles int) ([]layerMetric, error) {
	tb := fix.tables[0]
	reads := fix.ops
	qs, err := planQueries(tb, reads)
	if err != nil {
		return nil, err
	}
	var nodes [2]*node
	var servers [2]*serve.Server
	for i := range nodes {
		dir, err := tempDir(e.out, "trace-data-")
		if err != nil {
			return nil, err
		}
		disk, err := store.OpenDisk(dir, store.DiskOptions{})
		if err != nil {
			return nil, err
		}
		defer disk.Close()
		servers[i] = serve.NewWithConfig(serve.Config{Store: disk, CheckpointEvery: checkpointEvery})
		if err := load(servers[i], fix.tables); err != nil {
			return nil, err
		}
		nodes[i] = newNode(servers[i].Handler())
		defer nodes[i].close()
	}
	st := &churnState{pl: newPlanner(tb.ds)}
	st.table = facade(tb)
	st.dyn = st.table.PrepareDynamic()
	st.dyn.EnableCache(serve.DefaultCacheCapacity)

	// Warm-up: the reader's cycle fills the memo and the score index at
	// every depth before the first batch advances them.
	for i := range reads {
		for _, n := range nodes {
			if _, err := n.c.do(&reads[i], nil); err != nil {
				return nil, err
			}
		}
		if _, _, err := st.table.QueryContext(context.Background(), qs[i]); err != nil {
			return nil, err
		}
		if _, _, err := st.pl.run(qs[i]); err != nil {
			return nil, err
		}
	}
	memo := st.pl.env.Cache.(*plan.MemoCache)
	st.sky, _, _ = memo.GetFull()
	if ix, ok := memo.GetScoreIndex(); ok {
		st.ix = ix
	} else {
		st.ix = core.BuildScoreIndex(st.pl.ds, st.sky)
	}
	before := servers[0].Stats().Tables[0].Stats.PlanCache

	w := fix.writer
	w.reset()
	var maintainMs, promoteMs, advanceMs []float64
	promoted := 0
	read := func(class string, o *op, q plan.Query) {
		tr := t.op(scName, class)
		tr.at(d0, "POST /tables/t/query", nodes[0].viaHTTP(o))
		tr.at(d1, "serve.Server.Handler.ServeHTTP", viaHandler(nodes[1].handler, o))
		tr.at(d2, "tss.Table.QueryContext", func() error {
			_, _, err := st.table.QueryContext(context.Background(), q)
			return err
		})
		tr.at(d3, "plan.New+Plan.Run (memo)", func() error {
			_, _, err := st.pl.run(q)
			return err
		})
	}
	for c := 0; c < cycles; c++ {
		for _, s := range writerSteps {
			w.members = make([]int, len(st.sky))
			for i, id := range st.sky {
				w.members[i] = int(id)
			}
			remove, add, req := w.draw(s.nonMembers, s.members, s.adds)
			o := batch(s.class, req)
			rows := make([]tss.TableRow, len(req.Add))
			for i, r := range req.Add {
				rows[i] = tss.TableRow{TO: r.TO, PO: r.PO}
			}
			oldDS := st.pl.ds
			newDS, delta := applyDelta(oldDS, remove, add)

			tr := t.op(scName, s.class)
			tr.at(d0, "POST /tables/t/rows:batch", nodes[0].viaHTTP(&o))
			tr.at(d1, "serve.Server.Handler.ServeHTTP", viaHandler(nodes[1].handler, &o))
			tr.at(d2, "tss.Table.ApplyBatch+Dynamic.ApplyDelta", func() error {
				next, bd, err := st.table.ApplyBatch(remove, rows)
				if err != nil {
					return err
				}
				next.Seal()
				st.table, st.dyn = next, st.dyn.ApplyDelta(next, bd)
				return nil
			})
			tr.at(d3, "plan.MemoCache.Advance+Stats.Advance", func() error {
				st.pl.env.Cache = st.pl.env.Cache.(*plan.MemoCache).Advance(oldDS, newDS, delta)
				st.pl.env.Stats = st.pl.env.Stats.Advance(oldDS, newDS, delta.OldToNew, delta.Added)
				return nil
			})
			tr.at(d4, "core.MaintainSkyline+ScoreIndex.Advance", func() error {
				start := time.Now()
				sky, mst, ok := core.MaintainSkyline(oldDS, newDS, delta, st.sky, nil, nil)
				if !ok {
					return errors.New("MaintainSkyline refused the batch")
				}
				mid := time.Now()
				ix, ok := st.ix.Advance(oldDS, newDS, delta, sky)
				if !ok {
					return errors.New("ScoreIndex.Advance refused the batch")
				}
				end := time.Now()
				if s.class == "write_promote" {
					promoteMs = append(promoteMs, ms(mid.Sub(start)))
					promoted += mst.Promotions
				} else {
					maintainMs = append(maintainMs, ms(mid.Sub(start)))
				}
				advanceMs = append(advanceMs, ms(end.Sub(mid)))
				st.sky, st.ix = sky, ix
				return nil
			})
			st.pl.ds = newDS
			w.applied(remove, add)
			read("raw", &w.raw, qs[0])
		}
		for i := range reads {
			read(reads[i].class, &reads[i], qs[i])
		}
	}
	checkFull(t, scName, nodes[0], reads[0], w.mirror)

	after := servers[0].Stats().Tables[0].Stats.PlanCache
	hits := (after.FullHits + after.SubspaceHits + after.MaintainedHits) - (before.FullHits + before.SubspaceHits + before.MaintainedHits)
	misses := (after.FullMisses + after.SubspaceMisses) - (before.FullMisses + before.SubspaceMisses)
	advances := after.Advances - before.Advances
	fallbacks := after.MaintFallbacks - before.MaintFallbacks
	return []layerMetric{
		{"serve.http_overhead_us", t.self(scName, "full", d0, d1) * usPerMs, "us"},
		{"serve.handler_self_us.full", t.self(scName, "full", d1, d2) * usPerMs, "us"},
		{"serve.handler_self_us.topk", t.self(scName, "topk", d1, d2) * usPerMs, "us"},
		{"serve.batch_self_ms", t.self(scName, "write", d1, d2), "ms"},
		{"tss.query_self_us", t.self(scName, "full", d2, d3) * usPerMs, "us"},
		{"tss.applybatch_add_ms", t.depthMedian(scName, "write", d2), "ms"},
		{"tss.applybatch_promote_ms", t.depthMedian(scName, "write_promote", d2), "ms"},
		{"plan.memo_hit_us", t.depthMedian(scName, "full", d3) * usPerMs, "us"},
		{"plan.memo_advance_ms", t.depthMedian(scName, "write", d3), "ms"},
		{"plan.memo_hit_ratio", ratio(hits, hits+misses), "ratio"},
		{"plan.maintain_fallback_ratio", ratio(fallbacks, advances+fallbacks), "ratio"},
		{"core.maintain.add_ms", median(maintainMs), "ms"},
		{"core.maintain.promote_ms", median(promoteMs), "ms"},
		{"core.maintain.promoted_rows", float64(promoted), "count"},
		{"core.scoreindex.advance_ms", median(advanceMs), "ms"},
	}, nil
}

func ratio(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// ladderClusterScatter climbs cluster-scatter's classes from the
// coordinator down to its shard legs: d2 is the same request sent to
// each shard directly, the slowest leg deciding.
func ladderClusterScatter(t *tracer, fix *fixture, cycles int) ([]layerMetric, error) {
	tb := fix.tables[0]
	const shards = 2
	var legs [shards]*node
	urls := make([]string, shards)
	for i := range legs {
		legs[i] = newNode(serve.NewWithConfig(serve.Config{Shard: &serve.ShardIdentity{Index: i, Count: shards}}).Handler())
		defer legs[i].close()
		urls[i] = legs[i].ts.URL
	}
	co, err := cluster.New(cluster.Config{Shards: urls})
	if err != nil {
		return nil, err
	}
	front := newNode(co.Handler(serve.New(0).Handler()))
	defer front.close()
	create := op{method: http.MethodPost, path: "/tables", body: tb.body}
	if _, err := front.c.do(&create, nil); err != nil {
		return nil, err
	}

	ops, where := fix.ops, whereTO0(tb.bound)
	// Warm-up, and the inputs of the leg requests: the algorithm the
	// coordinator pins on its shards and the merged skyline it has
	// ranked by the shards' partial scores.
	var full *answer
	for i := range ops {
		a, err := front.c.fetch(&ops[i])
		if err != nil {
			return nil, err
		}
		if i == 0 {
			full = a
		}
	}
	var ex plan.Explain
	if err := json.Unmarshal(full.plan, &ex); err != nil {
		return nil, fmt.Errorf("coordinator explain: %w", err)
	}
	direct := func(o op) op { o.direct = true; return o }
	partials := serve.DomCountRequest{Rank: "dpidp"}
	for _, r := range full.rows {
		partials.Rows = append(partials.Rows, serve.RowSpec{TO: r.TO, PO: r.PO})
	}
	legOps := map[string]op{
		"full":        direct(query("full", serve.QueryRequest{Algo: ex.Algorithm})),
		"constrained": direct(query("constrained", serve.QueryRequest{Algo: ex.Algorithm, Where: where})),
		"ttfull":      direct(streamQuery("ttfull", serve.QueryRequest{Algo: "stss"})),
		"firstk":      direct(streamQuery("firstk", serve.QueryRequest{NoCache: true, Algo: "stss"})),
		"partials": direct(op{class: "topk", method: http.MethodPost, path: "/tables/t/domcount",
			body: mustJSON(partials)}),
	}
	legOps["topk"] = legOps["full"]

	// slowest runs a leg op on every shard, one after the other (the
	// ladder is single-threaded), and returns the slowest leg.
	slowest := func(o op) (time.Duration, error) {
		var worst time.Duration
		for _, l := range legs {
			tm, err := l.c.do(&o, nil)
			if err != nil {
				return 0, err
			}
			if tm.total > worst {
				worst = tm.total
			}
		}
		return worst, nil
	}
	// A first-K stream ends with the coordinator (or firstRow) walking
	// away from shard cursors that stop at their next cancellation
	// check; settle lets them, so the next call has the process to
	// itself like every other.
	settle := func(class string) {
		if class == "firstk" {
			time.Sleep(50 * time.Millisecond)
		}
	}
	var legMs, partialMs, lagMs []float64
	pruned, scattered := 0, 0
	for c := 0; c < cycles; c++ {
		for i := range ops {
			o := &ops[i]
			tr := t.op(clName, o.class)
			var first time.Duration
			tr.at(d0, o.method+" "+o.path, func() error {
				tm, err := front.c.do(o, nil)
				first = tm.first
				return err
			})
			settle(o.class)
			tr.at(d1, "cluster.Coordinator.Handler.ServeHTTP", viaHandler(front.handler, o))
			settle(o.class)
			if o.class == "firstk" {
				// The coordinator cancels its legs once K rows are
				// certified; a direct leg would run to the end. Only
				// the first rows compare: how long after the fastest
				// leg's first row the coordinator certifies its own.
				fastest := time.Duration(math.MaxInt64)
				for _, l := range legs {
					d, err := firstRow(l.c, legOps["firstk"])
					settle(o.class)
					if err != nil {
						t.errs = append(t.errs, err)
						continue
					}
					if d < fastest {
						fastest = d
					}
				}
				lagMs = append(lagMs, math.Max(0, ms(first-fastest)))
				continue
			}
			// d2 is the slowest leg, not the time the legs took one
			// after the other.
			legStart := time.Now()
			leg, err := slowest(legOps[o.class])
			if err != nil {
				t.errs = append(t.errs, err)
				continue
			}
			if o.class == "full" {
				legMs = append(legMs, ms(leg))
			}
			if o.class == "topk" {
				p, err := slowest(legOps["partials"])
				if err != nil {
					t.errs = append(t.errs, err)
					continue
				}
				partialMs = append(partialMs, ms(p))
				leg += p
			}
			tr.record(d2, "shard legs (X-Tss-Shard-Direct), slowest", legStart, leg)
		}
		for _, i := range []int{0, 1} { // full, constrained: the pruning candidates
			a, err := front.c.fetch(&ops[i])
			if err != nil {
				t.errs = append(t.errs, err)
				continue
			}
			scattered += a.cluster.Shards
			pruned += len(a.cluster.Pruned)
		}
	}
	checkFull(t, clName, front, ops[0], tb.ds)

	return []layerMetric{
		{"cluster.leg_ms", median(legMs), "ms"},
		{"cluster.merge_self_ms.full", t.self(clName, "full", d1, d2), "ms"},
		{"cluster.merge_self_ms.stream", t.self(clName, "ttfull", d1, d2), "ms"},
		{"cluster.certify_lag_ms", median(lagMs), "ms"},
		{"cluster.topk_partials_ms", median(partialMs), "ms"},
		{"cluster.pruned_ratio", ratio(int64(pruned), int64(scattered)), "ratio"},
	}, nil
}

// firstRow sends a stream op and returns the time to its first `row`
// frame, then drops the connection; the server sees the client leave
// and releases its cursor.
func firstRow(c *client, o op) (time.Duration, error) {
	start := time.Now()
	resp, err := c.send(&o)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf := make([]byte, 0, 4096)
	chunk := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(chunk)
		buf = append(buf, chunk[:n]...)
		if bytes.Contains(buf, rowPrefix) {
			return time.Since(start), nil
		}
		if err != nil {
			return 0, fmt.Errorf("%s %s: no row before the stream ended: %w", o.method, o.path, err)
		}
	}
}
