package main

import (
	"encoding/json"
	"math/rand"
	"strconv"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/exp"
	"repro/internal/poset"
	"repro/internal/serve"
)

// topK is the K of every first-K stream and ranked top-k query.
const topK = 10

// staticConfig is the paper's §VI-B default shape (2 TO columns of
// 10 000 values, 2 PO lattices h=8 d=0.8, Independent) at n rows.
func staticConfig(seed int64, n int) exp.Config {
	cfg := exp.StaticDefaults(1)
	cfg.N, cfg.Seed = n, seed
	return cfg
}

// dynamicConfig is the §VI-C default shape (3 TO, 1 PO lattice h=6).
func dynamicConfig(seed int64, n int) exp.Config {
	cfg := exp.DynamicDefaults(1)
	cfg.N, cfg.Seed = n, seed
	return cfg
}

// table is one generated table: the dataset the oracle and the traced
// ladder read, and the wire spec the servers are loaded with.
type table struct {
	cfg   exp.Config
	ds    *core.Dataset
	spec  serve.TableSpec
	body  []byte // marshalled spec, built off the setup timer
	bound int64  // inclusive to_0 upper bound of the constrained queries
}

// contents are the generator seeds of the table contents. Under this
// generator difficulty is heavy-tailed: a few rows near the origin with
// top PO values decide the skyline size (1097 to 1960 rows at N=10 000
// over ten generator seeds) and which rows a stream emits first, and
// every latency follows — 17 % to 48 % between the quartiles of ten
// freshly drawn tables, against 2 % to 7 % for one table run ten times.
// A regression bound cannot be tighter than that spread, so a run does
// not draw its content from its seed: every run measures each of these
// contents in turn, reports per class the mean of the per-content
// percentiles, and keeps the per-content values in results.json. The
// run's seed draws what leaves the difficulty alone: the row order (and
// with it every row index on the wire), the per-request DAG sets of the
// dynamic queries and the writer's batches.
var contents = []int64{1, 2}

// newTable generates content's rows in the order cfg.Seed draws.
func newTable(name string, cfg exp.Config, content int64) *table {
	order := rand.New(rand.NewSource(cfg.Seed)).Perm(cfg.N)
	cfg.Seed = content
	drawn := exp.BuildDataset(cfg)
	ds := &core.Dataset{Domains: drawn.Domains, Pts: make([]core.Point, cfg.N)}
	for i, j := range order {
		ds.Pts[i] = drawn.Pts[j]
		ds.Pts[i].ID = int32(i)
	}
	// The constrained queries keep a tenth of the TO domain, as in the
	// issue (`to_0 <= 1000` of 10 000 values).
	t := &table{cfg: cfg, ds: ds, spec: serve.SpecFromDataset(name, ds), bound: int64(cfg.TODomain / 10)}
	t.body = mustJSON(t.spec)
	return t
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// rowSpec renders a point in wire form (PO labels are the value ids,
// as serve.SpecFromDataset writes them).
func rowSpec(p *core.Point) serve.RowSpec {
	r := serve.RowSpec{TO: make([]int64, len(p.TO))}
	for d, v := range p.TO {
		r.TO[d] = int64(v)
	}
	for _, v := range p.PO {
		r.PO = append(r.PO, strconv.Itoa(int(v)))
	}
	return r
}

// randomPoint draws one row from the table's own distribution.
func randomPoint(rng *rand.Rand, cfg exp.Config, domains []*poset.Domain) core.Point {
	p := core.Point{TO: make([]int32, cfg.TO), PO: make([]int32, len(domains))}
	for d := range p.TO {
		p.TO[d] = int32(rng.Intn(cfg.TODomain))
	}
	for d, dom := range domains {
		p.PO[d] = int32(rng.Intn(dom.Size()))
	}
	return p
}

// queryOrders draws a fresh random preference DAG per PO column — the
// per-request orders of a dynamic query — in wire form, and returns the
// DAGs for the callers that check or re-run the query under them.
func queryOrders(rng *rand.Rand, domains []*poset.Domain) ([]serve.QueryOrder, []*poset.DAG) {
	orders := make([]serve.QueryOrder, len(domains))
	dags := make([]*poset.DAG, len(domains))
	for d, dom := range domains {
		dags[d] = data.RandomOrderAvgDegree(rng, dom.Size(), 2)
		orders[d] = serve.QueryOrder{Edges: serve.OrderSpecFromDAG("", dags[d]).Edges}
		if orders[d].Edges == nil {
			orders[d].Edges = [][2]string{}
		}
	}
	return orders, dags
}

// compile turns query DAGs into the domains dominance is tested under.
func compile(dags []*poset.DAG) []*poset.Domain {
	doms := make([]*poset.Domain, len(dags))
	for d, dag := range dags {
		doms[d] = poset.MustDomain(dag)
	}
	return doms
}
