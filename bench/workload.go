package main

import (
	"fmt"
	"math/rand"

	"repro/internal/serve"
)

// A workload is a deployment of real tssserve processes, the tables
// they are loaded with, and one seeded op cycle per closed-loop client.
// Every metric a workload reports is fed by exactly one op class.
type workload struct {
	name string // BENCHMARK.json says why each one exists
	// build generates the seeded inputs over one table content; nothing
	// here is timed.
	build func(seed, content int64, scale float64) *fixture
}

// topology says which processes a workload starts.
type topology struct {
	shards  int  // 0: one plain node; n: n shard nodes behind a coordinator
	durable bool // -data-dir in a temp dir, fsync on
}

// checkpointEvery makes the durable workload checkpoint several times
// per phase instead of never (the default is 4 MiB): a writer cycle
// logs about 350 bytes, so this is a checkpoint every six cycles.
const checkpointEvery = 2048

// fixture is one seed's worth of a workload over one table content.
type fixture struct {
	topo    topology
	tables  []*table
	clients []*loop
	// ops are the fixed requests of the cycle (the reader's, where a
	// writer draws its own as it goes); the traced run climbs the same.
	ops     []op
	writer  *writer // serve-churn's mutating client
	metrics []metricDef
	// checks verify every class's answer on the final state; they run
	// after the measured phase, off the timer.
	checks func(c *client) []error
}

// loop is one client's endless cycle. The first client leads: its
// cycles are the workload's cycle_p50_ms, and the others stop at their
// next op once it has finished its last whole cycle.
type loop struct {
	name  string
	cycle func(x *runner) // runs exactly one cycle through x
	reset func()          // optional: back to the initial table state
	// classes lists the op classes the cycle feeds (sample bookkeeping).
	classes []string
}

// metricDef derives one reported metric from one class's samples.
type metricDef struct {
	name  string
	class string
	first bool    // time to first result instead of to completion
	p     float64 // percentile
	extra bool    // workload-specific: printed, not in BENCHMARK.json
}

func p50(name, class string) metricDef { return metricDef{name: name, class: class, p: 50} }

func extra(m metricDef) metricDef { m.extra = true; return m }

// scaled shrinks a row count for the smoke tests, not below floor.
func scaled(n int, scale float64, floor int) int {
	if n = int(float64(n) * scale); n < floor {
		return floor
	}
	return n
}

// Smallest tables of the smoke tests. serve-churn's must stay large: a
// small table is mostly skyline (276 of 400 rows), and the writer, which
// only ever removes rows outside it, runs out of them within thirty
// cycles.
const (
	minRows      = 200
	minChurnRows = 1000
)

// staticCycle repeats a fixed op list; each entry is sent reps times.
func staticCycle(ops []op, reps []int) func(x *runner) {
	return func(x *runner) {
		for i := range ops {
			for r := 0; r < reps[i]; r++ {
				x.do(&ops[i])
			}
		}
	}
}

func classesOf(ops []op) []string {
	var out []string
	for _, o := range ops {
		out = append(out, o.class)
	}
	return out
}

func whereTO0(bound int64) []serve.WhereSpec {
	return []serve.WhereSpec{{Col: "to_0", Le: &bound}}
}

// The workload names double as the traced run's span labels.
const (
	csName = "cursor-stream"
	qcName = "query-cold"
	scName = "serve-churn"
	clName = "cluster-scatter"
)

var workloads = []*workload{
	{name: csName, build: buildCursorStream},
	{name: qcName, build: buildQueryCold},
	{name: scName, build: buildServeChurn},
	{name: clName, build: buildClusterScatter},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// cursor-stream: cold progressive NDJSON streams computed by the sTSS
// cursor. BENCHMARK.json's contract makes every workload report every
// end-to-end metric, so the cycle also carries buffered reads of each
// gated class — warm from the memo, the requests of serve-churn's
// reader, on this table; together about 1 % of the cycle's time. (Cold
// buffered reads were tried first: sent right after the cold streams a
// 3 ms cold read takes 1.7 to 12 ms, and its median was the least
// steady number of the benchmark.)
func buildCursorStream(seed, content int64, scale float64) *fixture {
	t := newTable("t", staticConfig(seed, scaled(1000, scale, minRows)), content)
	ops := []op{
		streamQuery("ttfull", serve.QueryRequest{NoCache: true}),
		streamQuery("firstk", serve.QueryRequest{NoCache: true, TopK: topK}),
		query("full", serve.QueryRequest{Explain: true}),
		query("constrained", serve.QueryRequest{Explain: true, Where: whereTO0(t.bound)}),
		query("topk", serve.QueryRequest{Explain: true, TopK: topK, Rank: "dpidp"}),
	}
	return &fixture{
		tables:  []*table{t},
		ops:     ops,
		clients: []*loop{{name: "client", cycle: staticCycle(ops, []int{1, 10, 3, 3, 3}), classes: classesOf(ops)}},
		metrics: []metricDef{
			p50("full_p50_ms", "full"),
			p50("constrained_p50_ms", "constrained"),
			p50("topk_p50_ms", "topk"),
			extra(metricDef{name: "ttfr_p50_ms", class: "firstk", first: true, p: 50}),
			extra(p50("firstk_p50_ms", "firstk")),
			extra(p50("ttfull_p50_ms", "ttfull")),
		},
		checks: func(c *client) []error {
			// Both streams come cold from one cursor order: first-K is a
			// prefix of the full stream.
			return checkStatic(c, t, ops, true)
		},
	}
}

// query-cold: buffered, noCache, the planner's own choice of algorithm.
func buildQueryCold(seed, content int64, scale float64) *fixture {
	t := newTable("t", staticConfig(seed, scaled(10000, scale, minRows)), content)
	d := newTable("d", dynamicConfig(seed, scaled(10000, scale, minRows)), content)
	ops := []op{
		query("full", serve.QueryRequest{NoCache: true}),
		query("constrained", serve.QueryRequest{NoCache: true, Where: whereTO0(t.bound)}),
		query("topk", serve.QueryRequest{NoCache: true, TopK: topK, Rank: "dpidp"}),
	}
	static := staticCycle(ops, []int{1, 4, 1})
	// A fresh DAG set per op: the dTSS result cache never hits.
	rng := rand.New(rand.NewSource(seed*31 + 7))
	dynamic := func() op {
		orders, _ := queryOrders(rng, d.ds.Domains)
		o := query("dynamic", serve.QueryRequest{Orders: orders})
		o.path = "/tables/d/query"
		return o
	}
	return &fixture{
		tables: []*table{t, d},
		ops:    ops,
		clients: []*loop{{
			name: "client",
			cycle: func(x *runner) {
				static(x)
				o := dynamic()
				x.do(&o)
			},
			classes: append(classesOf(ops), "dynamic"),
		}},
		metrics: []metricDef{
			p50("full_p50_ms", "full"),
			p50("constrained_p50_ms", "constrained"),
			p50("topk_p50_ms", "topk"),
			extra(p50("dynamic_p50_ms", "dynamic")),
		},
		checks: func(c *client) []error {
			// No streamed ≡ buffered here: a cold stream of this table is
			// seconds of cursor, and cursor-stream checks that path.
			errs := checkStatic(c, t, ops, false)
			return append(errs, checkDynamic(c, d, seed)...)
		},
	}
}

// serve-churn: one writer and one warm reader on a durable node.
func buildServeChurn(seed, content int64, scale float64) *fixture {
	t := newTable("t", staticConfig(seed, scaled(2000, scale, minChurnRows)), content)
	reads := []op{
		query("full", serve.QueryRequest{Explain: true}),
		query("constrained", serve.QueryRequest{Explain: true, Where: whereTO0(t.bound)}),
		query("topk", serve.QueryRequest{Explain: true, TopK: topK, Rank: "dpidp"}),
	}
	w := newWriter(t, seed)
	return &fixture{
		topo:   topology{durable: true},
		tables: []*table{t},
		ops:    reads,
		writer: w,
		clients: []*loop{
			{name: "writer", cycle: w.cycle, reset: w.reset, classes: []string{"write", "write_promote", "raw"}},
			{name: "reader", cycle: staticCycle(reads, []int{1, 1, 1}), classes: classesOf(reads)},
		},
		metrics: []metricDef{
			p50("full_p50_ms", "full"),
			p50("constrained_p50_ms", "constrained"),
			p50("topk_p50_ms", "topk"),
			extra(metricDef{name: "full_p90_ms", class: "full", p: 90}),
			extra(p50("write_p50_ms", "write")),
			extra(p50("write_promote_p50_ms", "write_promote")),
			extra(p50("raw_p50_ms", "raw")),
		},
		checks: func(c *client) []error {
			// The final state is the writer's mirror: its batches
			// replayed onto the initial rows.
			errs := checkStatic(c, w.table(), reads, false)
			return append(errs, checkStreamed(c, w.table(), reads[0]))
		},
	}
}

// cluster-scatter: every request goes through the coordinator.
func buildClusterScatter(seed, content int64, scale float64) *fixture {
	t := newTable("t", staticConfig(seed, scaled(8000, scale, minRows)), content)
	ops := []op{
		query("full", serve.QueryRequest{Explain: true}),
		query("constrained", serve.QueryRequest{Explain: true, Where: whereTO0(t.bound)}),
		query("topk", serve.QueryRequest{Explain: true, TopK: topK, Rank: "dpidp"}),
		streamQuery("ttfull", serve.QueryRequest{Explain: true}),
		streamQuery("firstk", serve.QueryRequest{NoCache: true, TopK: topK}),
	}
	return &fixture{
		topo:    topology{shards: 2},
		tables:  []*table{t},
		ops:     ops,
		clients: []*loop{{name: "client", cycle: staticCycle(ops, []int{1, 1, 1, 1, 1}), classes: classesOf(ops)}},
		metrics: []metricDef{
			p50("full_p50_ms", "full"),
			p50("constrained_p50_ms", "constrained"),
			p50("topk_p50_ms", "topk"),
			extra(metricDef{name: "ttfr_p50_ms", class: "firstk", first: true, p: 50}),
			extra(p50("firstk_p50_ms", "firstk")),
			extra(p50("ttfull_p50_ms", "ttfull")),
		},
		checks: func(c *client) []error {
			// The warm full stream is merged from two shards: another
			// order than the cold first-K stream's.
			return checkStatic(c, t, ops, false)
		},
	}
}
