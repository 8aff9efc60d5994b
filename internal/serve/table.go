// Package serve is the HTTP/JSON skyline query server behind
// cmd/tssserve: a catalog of named tables, each published as an
// immutable copy-on-write snapshot (a sealed tss.Table with its skyline
// memo), so any number of concurrent readers query lock-free while
// batched mutations derive the next snapshot and atomically swap it in.
// With a storage engine attached, every batch is appended to the table's
// write-ahead log before the snapshot is published, logs checkpoint into
// columnar snapshots past a size threshold, and tables recover on
// startup — see internal/store.
//
// Consistency model: a query is answered entirely by one snapshot — the
// one current when the request reached the table — and the response
// carries that snapshot's version. Row indexes are snapshot-scoped.
// Mutations are serialized per table and never touch a published
// snapshot; in-flight queries keep reading the version they started on.
package serve

import (
	"fmt"
	"sync"
	"sync/atomic"

	tss "repro"
	"repro/internal/plan"
)

// snapshot is one immutable published state of a table. The table is
// sealed (all lazily built per-domain indexes precompiled); what a
// query derives from it afterwards (memo entries, the scan order) is
// published atomically.
type snapshot struct {
	version int64
	table   *tss.Table
}

// tableEntry is a catalog slot: the current snapshot behind an atomic
// pointer (readers), a mutation lock (writers), and traffic counters.
type tableEntry struct {
	name   string
	schema *Schema      // column names, label indexes, query translation
	orders []*tss.Order // compiled base orders, shared by all snapshots

	// specCacheCap preserves the table spec's cache sizing (0 = server
	// default) for persistence across restarts; cacheCap is the resolved
	// size of each fresh snapshot memo's per-request-orders LRU.
	specCacheCap int
	cacheCap     int

	writeMu sync.Mutex // serializes mutations; readers never take it
	snap    atomic.Pointer[snapshot]

	// Checkpoint backoff state (see Server.maybeCheckpoint). ckptSkip
	// and ckptSkipLeft are guarded by writeMu; ckptStreak is atomic so
	// /healthz reads it without the write lock.
	ckptSkip     int
	ckptSkipLeft int
	ckptStreak   atomic.Int64

	queries   atomic.Int64
	mutations atomic.Int64
	// Memo counters of per-request-orders queries, accumulated per served
	// query rather than read from the snapshots' memos: snapshots retire
	// while queries are still in flight on them. Exact and cumulative
	// across swaps.
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	// Memo counters of queries under the table's own orders, split by
	// route: a maintained hit is a memo entry carried across mutations by
	// delta maintenance; full and subspace hits are cold-computed entries
	// of the current snapshot. Misses count cacheable queries (no Where)
	// that found no entry.
	planFullHits       atomic.Int64
	planFullMisses     atomic.Int64
	planSubHits        atomic.Int64
	planSubMisses      atomic.Int64
	planMaintainedHits atomic.Int64
	// Ranked top-k queries by score provenance (Explain.RankedFrom):
	// score index, memoised skyline, or cold compute.
	planRankedIndex atomic.Int64
	planRankedMemo  atomic.Int64
	planRankedCold  atomic.Int64
}

// buildOrders compiles OrderSpecs into tss Orders, converting the
// facade's construction panics (duplicate labels, unknown edge labels,
// preference cycles) into errors a handler can return as 400s.
func buildOrders(specs []OrderSpec) (orders []*tss.Order, err error) {
	defer func() {
		if r := recover(); r != nil {
			orders, err = nil, fmt.Errorf("%v", r)
		}
	}()
	for _, spec := range specs {
		o := tss.NewOrder(spec.Values...)
		for _, e := range spec.Edges {
			o.Prefer(e[0], e[1])
		}
		orders = append(orders, o)
	}
	return orders, nil
}

// newTableEntry validates a spec, builds the initial snapshot at the
// given version and returns the ready entry. cacheCap sizes the memo's
// per-request-orders LRU unless the spec does; version is 0 for fresh
// tables and the recovered version when loading from a store.
func newTableEntry(spec TableSpec, cacheCap int, version int64) (*tableEntry, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("table name is required")
	}
	// Every index and every subspace keeps at least one TO coordinate.
	if len(spec.TOColumns) == 0 {
		return nil, fmt.Errorf("table %q needs at least one totally ordered column", spec.Name)
	}
	orders, err := buildOrders(spec.Orders)
	if err != nil {
		return nil, err
	}
	// Schema construction also enforces the shared column namespace
	// (TO names, order names, "po<d>" fallbacks): a collision would make
	// one column silently unaddressable at query time.
	schema, err := NewSchema(spec.TOColumns, spec.Orders)
	if err != nil {
		return nil, err
	}
	if spec.CacheCapacity > 0 {
		cacheCap = spec.CacheCapacity
	}
	e := &tableEntry{
		name:         spec.Name,
		schema:       schema,
		orders:       orders,
		specCacheCap: spec.CacheCapacity,
		cacheCap:     cacheCap,
	}
	table, err := e.freshTable()
	if err != nil {
		return nil, err
	}
	for i, r := range spec.Rows {
		if err := table.Add(r.TO, r.PO...); err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
	}
	table.Seal()
	table.SetQueryCache(e.freshMemo())
	e.snap.Store(&snapshot{version: version, table: table})
	return e, nil
}

// freshTable builds an empty table over the entry's schema, converting
// compile panics (preference cycles) into errors.
func (e *tableEntry) freshTable() (t *tss.Table, err error) {
	defer func() {
		if r := recover(); r != nil {
			t, err = nil, fmt.Errorf("%v", r)
		}
	}()
	return tss.NewTable(e.schema.toCols, e.orders...), nil
}

// freshMemo returns an empty skyline memo for the planner's cache
// routing, its per-request-orders LRU sized by the entry. A memo is
// snapshot-scoped: it describes exactly one row set.
func (e *tableEntry) freshMemo() *plan.MemoCache {
	return plan.NewMemoCacheWithCaps(e.cacheCap)
}

// current returns the snapshot serving reads right now.
func (e *tableEntry) current() *snapshot { return e.snap.Load() }

// applyBatch atomically applies a batched mutation. The next snapshot
// is *derived*, not rebuilt: Table.ApplyBatch copies the row header
// (removals first — by current-snapshot row index — then appends,
// survivors renumbered) and advances the statistics and the memo.
// Reads issued while this runs are served by the old snapshot.
//
// persist, when non-nil, is called with the produced version *before*
// the snapshot is published; an error aborts the swap, so every
// version a client ever observes is in the log. This is the serving
// layer's write-ahead contract.
func (e *tableEntry) applyBatch(req BatchRequest, persist func(version int64) error) (BatchResponse, error) {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	cur := e.current()

	// A no-op batch must not discard the warm memo.
	if len(req.Add) == 0 && len(req.Remove) == 0 {
		return BatchResponse{Table: e.name, Version: cur.version, Rows: cur.table.Len()}, nil
	}

	adds := make([]tss.TableRow, len(req.Add))
	for i, r := range req.Add {
		adds[i] = tss.TableRow{TO: r.TO, PO: r.PO}
	}
	next, delta, err := cur.table.ApplyBatch(req.Remove, adds)
	if err != nil {
		return BatchResponse{}, err
	}
	next.Seal()
	// The skyline memo survives the mutation: Table.ApplyBatch already
	// advanced the old snapshot's memo across the delta (entries
	// re-certified by the incremental maintainer, over-churn entries
	// dropped), so post-batch repeat queries hit the maintained route
	// instead of recomputing from cold.
	if next.QueryCache() == nil {
		next.SetQueryCache(e.freshMemo())
	}

	version := cur.version + 1
	if persist != nil {
		if err := persist(version); err != nil {
			return BatchResponse{}, err
		}
	}
	e.snap.Store(&snapshot{version: version, table: next})
	e.mutations.Add(1)
	return BatchResponse{
		Table:   e.name,
		Version: version,
		Rows:    next.Len(),
		Added:   delta.Added,
		Removed: delta.OldLen - (delta.NewLen - delta.Added),
	}, nil
}

// info renders the entry for /tables and /statsz.
func (e *tableEntry) info() TableInfo {
	s := e.current()
	pc := PlanCacheStats{
		FullHits:       e.planFullHits.Load(),
		FullMisses:     e.planFullMisses.Load(),
		SubspaceHits:   e.planSubHits.Load(),
		SubspaceMisses: e.planSubMisses.Load(),
		MaintainedHits: e.planMaintainedHits.Load(),
		RankedIndex:    e.planRankedIndex.Load(),
		RankedMemo:     e.planRankedMemo.Load(),
		RankedCold:     e.planRankedCold.Load(),
	}
	// Maintenance counters live in the memo lineage itself (cumulative
	// across Advance calls, shared by every snapshot of the table).
	if mc, ok := s.table.QueryCache().(*plan.MemoCache); ok {
		ms := mc.MaintStats()
		pc.Advances = ms.Advances
		pc.Promotions = ms.Promotions
		pc.MaintFallbacks = ms.Fallbacks
		pc.SubspaceEvictions = ms.SubspaceEvictions
		pc.IndexAdvances = ms.IndexAdvances
		pc.IndexFallbacks = ms.IndexFallbacks
	}
	return TableInfo{
		Name:      e.name,
		Version:   s.version,
		Rows:      s.table.Len(),
		TOColumns: e.schema.TOColumns(),
		Orders:    e.schema.Orders(),
		Stats: TableStats{
			Queries:     e.queries.Load(),
			Mutations:   e.mutations.Load(),
			CacheHits:   e.cacheHits.Load(),
			CacheMisses: e.cacheMisses.Load(),
			PlanCache:   pc,
		},
	}
}

// countCache folds one query outcome into the memo counters: the
// orders-keyed pair for a query that brought its own orders, the
// per-route ones otherwise. Maintained hits are exclusive of full and
// subspace hits; misses are counted only for queries that consulted the
// memo and found nothing (no predicates — Where queries push down
// without consulting it, unless a post-filter cache hit is reported,
// which counts as a hit of its entry's route — and neither a NoCache
// bypass nor the ideal-point transform, which the memo never holds).
func (e *tableEntry) countCache(ex *plan.Explain, q *plan.Query) {
	if q.Hints.NoCache {
		return
	}
	subspace := q.Subspace != nil
	miss := !ex.CacheHit && ex.Route == plan.RouteDirect && !q.IdealTransform()
	switch ex.RankedFrom {
	case "index":
		e.planRankedIndex.Add(1)
	case "memo":
		e.planRankedMemo.Add(1)
	case "cold":
		e.planRankedCold.Add(1)
	}
	switch {
	case q.Orders != nil && ex.CacheHit:
		e.cacheHits.Add(1)
	case q.Orders != nil:
		if miss {
			e.cacheMisses.Add(1)
		}
	case ex.CacheHit && ex.Maintained:
		e.planMaintainedHits.Add(1)
	case ex.CacheHit && subspace:
		e.planSubHits.Add(1)
	case ex.CacheHit:
		e.planFullHits.Add(1)
	case miss && subspace:
		e.planSubMisses.Add(1)
	case miss:
		e.planFullMisses.Add(1)
	}
}
