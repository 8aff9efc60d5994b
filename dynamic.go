package tss

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/poset"
)

// Dynamic is a table prepared for dynamic skyline queries (the paper's
// dTSS, §V): rows are grouped by their PO value combination with one
// small R-tree per group, built once. Each query supplies fresh
// preference DAGs over the same value sets; only the DAG preprocessing
// (topological sort, spanning tree, interval propagation) happens per
// query — no index is rebuilt and no coordinate is recomputed.
type Dynamic struct {
	table    *Table
	db       *core.DynamicDB
	cacheCap int
}

// PrepareDynamic freezes the table's current rows into a dynamic-query
// database. The table's own Orders become irrelevant for querying; only
// their value sets matter.
func (t *Table) PrepareDynamic() *Dynamic {
	return &Dynamic{table: t, db: core.NewDynamicDB(t.ds, core.Options{})}
}

// Table returns the table this database was prepared from.
func (d *Dynamic) Table() *Table { return d.table }

// ApplyDelta prepares next — a table produced by Table.ApplyBatch on
// this database's table — for dynamic queries by rebuilding its
// database, carrying over the cache capacity with a fresh, empty cache
// (cached skylines are stale once rows changed). The receiver keeps
// answering for its own table; delta is not consulted.
func (d *Dynamic) ApplyDelta(next *Table, delta *BatchDelta) *Dynamic {
	nd := next.PrepareDynamic()
	if d.cacheCap > 0 {
		nd.EnableCache(d.cacheCap)
	}
	return nd
}

// Groups returns the number of distinct PO value combinations.
func (d *Dynamic) Groups() int { return d.db.NumGroups() }

// EnableCache memoises up to capacity past query results, keyed by the
// canonical form of the query's preference orders: repeating a query
// (however its Orders were re-built) is served without touching any
// index (§V-B). Enable before sharing the Dynamic across goroutines;
// queries through an enabled cache are concurrency-safe.
func (d *Dynamic) EnableCache(capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	d.cacheCap = capacity
	d.db.EnableCache(capacity)
}

// CacheStats returns (hits, misses) since EnableCache.
func (d *Dynamic) CacheStats() (hits, misses int64) { return d.db.CacheStats() }

// Query computes the dynamic skyline under the given preference orders
// (one per PO column; each must use exactly the same value labels as
// the column's original Order). The orders may be freshly built per
// query — compiling them is the only per-query preprocessing needed.
func (d *Dynamic) Query(orders ...*Order) (*SkylineResult, error) {
	return d.QueryContext(context.Background(), orders...)
}

// QueryContext is Query with cooperative cancellation: ctx is checked
// between point groups and periodically inside each group's index
// traversal, so a server-side request timeout cancels a long dynamic
// run mid-flight instead of only refusing to start it. A canceled query
// returns an error wrapping the context's and stores nothing in the
// result cache.
func (d *Dynamic) QueryContext(ctx context.Context, orders ...*Order) (*SkylineResult, error) {
	domains, err := d.compileQueryOrders(orders)
	if err != nil {
		return nil, err
	}
	res, err := d.db.QueryTSSContext(ctx, domains, core.Options{})
	if err != nil {
		return nil, err
	}
	return wrapResult(res), nil
}

// QueryAt computes the *fully dynamic* skyline (§V-B): besides the
// preference orders, the query names the ideal TO values ideal (one per
// TO column); every TO comparison becomes a distance |value − ideal|,
// so "best" means closest to the ideal rather than smallest. It is the
// table's planned query with Orders and Ideal set, so it bypasses the
// result cache and neither reads nor rebuilds the group trees.
func (d *Dynamic) QueryAt(ideal []int64, orders ...*Order) (*SkylineResult, error) {
	return d.QueryAtContext(context.Background(), ideal, orders...)
}

// QueryAtContext is QueryAt with cooperative cancellation (the same
// contract as QueryContext).
func (d *Dynamic) QueryAtContext(ctx context.Context, ideal []int64, orders ...*Order) (*SkylineResult, error) {
	domains, err := d.compileQueryOrders(orders)
	if err != nil {
		return nil, err
	}
	res, _, err := d.table.QueryContext(ctx, plan.Query{Orders: domains, Ideal: ideal})
	return res, err
}

// QueryBaseline answers the same query with the rebuild-everything
// SDC+ adaptation — the baseline dTSS is evaluated against. Exposed so
// applications (and the examples) can reproduce the paper's dynamic
// comparison on their own data.
func (d *Dynamic) QueryBaseline(orders ...*Order) (*SkylineResult, error) {
	return d.QueryBaselineContext(context.Background(), orders...)
}

// QueryBaselineContext is QueryBaseline with cooperative cancellation
// (the same contract as QueryContext): the SDC+ traversal checks ctx
// periodically mid-run, not just before starting.
func (d *Dynamic) QueryBaselineContext(ctx context.Context, orders ...*Order) (*SkylineResult, error) {
	domains, err := d.compileQueryOrders(orders)
	if err != nil {
		return nil, err
	}
	res, err := core.DynamicSDCPlusContext(ctx, d.table.ds, domains, core.Options{})
	if err != nil {
		return nil, err
	}
	return wrapResult(res), nil
}

func (d *Dynamic) compileQueryOrders(orders []*Order) ([]*poset.Domain, error) {
	if len(orders) != len(d.table.orders) {
		return nil, fmt.Errorf("tss: query has %d orders, table has %d PO columns",
			len(orders), len(d.table.orders))
	}
	domains := make([]*poset.Domain, len(orders))
	for i, o := range orders {
		base := d.table.orders[i]
		if len(o.labels) != len(base.labels) {
			return nil, fmt.Errorf("tss: query order %d has %d values, column expects %d",
				i, len(o.labels), len(base.labels))
		}
		for vi, l := range base.labels {
			if o.labels[vi] != l {
				return nil, fmt.Errorf("tss: query order %d value %d is %q, column expects %q",
					i, vi, o.labels[vi], l)
			}
		}
		dom, err := o.compile()
		if err != nil {
			return nil, err
		}
		domains[i] = dom
	}
	return domains, nil
}
