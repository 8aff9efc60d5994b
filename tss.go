// Package tss is a library for skyline queries over data with partially
// ordered attribute domains, implementing "Topologically Sorted Skylines
// for Partially Ordered Domains" (Sacharidis, Papadopoulos, Papadias;
// ICDE 2009).
//
// A skyline query returns the tuples not dominated by any other tuple:
// at least as good everywhere and strictly better somewhere. Totally
// ordered (TO) attributes are int64 columns where smaller is better;
// partially ordered (PO) attributes take values from a finite domain
// whose preferences form a DAG (an Order): value x is preferred to y
// when a directed path x→y exists, and values without a path are
// incomparable — neither can rule the other out of the skyline.
//
// The library's core algorithm, sTSS, maps every PO domain onto a
// topological sort (for precedence: dominators are always examined
// first) and an exact interval encoding (for exactness: dominance checks
// never produce false hits), which makes it optimally progressive:
// every skyline tuple is emitted the moment it is examined. Dynamic
// skyline queries — where each query brings its own preference DAGs —
// are a field of the planned query (plan.Query.Orders: the same plan over
// the same rows under those domains); the paper's own structure for them,
// dTSS, is the prepared Dynamic database, which never rebuilds its
// indexes between queries.
//
// Quick start:
//
//	airline := tss.NewOrder("a", "b", "c", "d")
//	airline.Prefer("a", "b")
//	airline.Prefer("a", "c")
//	airline.Prefer("b", "d")
//	airline.Prefer("c", "d")
//
//	table := tss.NewTable([]string{"price", "stops"}, airline)
//	table.MustAdd([]int64{1800, 0}, "a")
//	table.MustAdd([]int64{1200, 1}, "b")
//	// ...
//	for _, row := range table.Skyline() {
//	    fmt.Println(table.Row(row))
//	}
package tss

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/poset"
)

// Order is a partially ordered attribute domain under construction: a
// set of labelled values plus preference edges. Orders are mutable
// until first use by a Table or Query, at which point they are compiled
// and frozen.
type Order struct {
	labels []string
	index  map[string]int
	edges  [][2]int
	dom    *poset.Domain // compiled form; nil until frozen
}

// NewOrder creates a domain with the given distinct value labels and no
// preferences (all values incomparable).
func NewOrder(labels ...string) *Order {
	o := &Order{index: make(map[string]int, len(labels))}
	for _, l := range labels {
		if _, dup := o.index[l]; dup {
			panic(fmt.Sprintf("tss: duplicate value label %q", l))
		}
		o.index[l] = len(o.labels)
		o.labels = append(o.labels, l)
	}
	return o
}

// Prefer records that value better is preferred to value worse.
// Preferences are transitive: a→b and b→c imply a is preferred to c.
// Panics on unknown labels or after the order has been compiled.
func (o *Order) Prefer(better, worse string) *Order {
	if o.dom != nil {
		panic("tss: Order is frozen (already used by a Table or Query)")
	}
	bi, ok := o.index[better]
	if !ok {
		panic(fmt.Sprintf("tss: unknown value %q", better))
	}
	wi, ok := o.index[worse]
	if !ok {
		panic(fmt.Sprintf("tss: unknown value %q", worse))
	}
	o.edges = append(o.edges, [2]int{bi, wi})
	return o
}

// Values returns the value labels in declaration order.
func (o *Order) Values() []string { return append([]string(nil), o.labels...) }

// compile freezes the order into a poset.Domain.
func (o *Order) compile() (*poset.Domain, error) {
	if o.dom != nil {
		return o.dom, nil
	}
	dag := poset.NewDAG(len(o.labels))
	for i, l := range o.labels {
		dag.SetLabel(i, l)
	}
	for _, e := range o.edges {
		if e[0] == e[1] {
			return nil, fmt.Errorf("tss: self-preference on %q", o.labels[e[0]])
		}
		if err := dag.AddEdge(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	dom, err := poset.NewDomain(dag)
	if err != nil {
		if errors.Is(err, poset.ErrCycle) {
			return nil, fmt.Errorf("tss: preferences contain a cycle")
		}
		return nil, err
	}
	o.dom = dom
	return dom, nil
}

// Preferred reports whether value better is (transitively) preferred to
// worse under this order. Compiles the order on first use.
func (o *Order) Preferred(better, worse string) bool {
	dom, err := o.compile()
	if err != nil {
		panic(err)
	}
	bi, ok := o.index[better]
	if !ok {
		return false
	}
	wi, ok := o.index[worse]
	if !ok {
		return false
	}
	return dom.TPrefers(int32(bi), int32(wi))
}

// Table is an in-memory relation with totally ordered and partially
// ordered columns, ready for skyline queries. Rows are identified by
// their insertion index.
type Table struct {
	toNames []string
	orders  []*Order
	ds      *core.Dataset

	// stats holds the table's row count and TO bounds: maintained
	// incrementally by ApplyBatch, computed lazily on first Stats call
	// otherwise, invalidated by Add. Atomic so lazily computing it may
	// race concurrent readers of a shared (sealed) table.
	stats atomic.Pointer[plan.Stats]
	// order holds these rows' indexes in SFS's presort order
	// (core.SFSOrder), held the way stats is: sorted lazily by the first
	// scan that wants it (never by Seal or a write), published by CAS,
	// invalidated by Add, and absent on every table Clone/Filter/
	// ApplyBatch derives — rows are renumbered there.
	order atomic.Pointer[[]int32]
	// queryCache optionally memoises the full skyline for the planner's
	// cache routing (see SetQueryCache).
	queryCache plan.Cache
	// resident is residentOrder as a func value, bound once by newTable
	// so that planning a query does not allocate it.
	resident func() (order []int32, resident bool)
}

// newTable is every table's constructor.
func newTable(toNames []string, orders []*Order, ds *core.Dataset) *Table {
	t := &Table{toNames: toNames, orders: orders, ds: ds}
	t.resident = t.residentOrder
	return t
}

// NewTable creates a table with the given TO column names followed by
// one PO column per Order. Orders are compiled (and frozen) here.
func NewTable(toNames []string, orders ...*Order) *Table {
	t := newTable(toNames, orders, &core.Dataset{})
	for _, o := range orders {
		dom, err := o.compile()
		if err != nil {
			panic(err)
		}
		t.ds.Domains = append(t.ds.Domains, dom)
	}
	return t
}

// Add appends a row: to holds the TO column values (smaller = better),
// po the PO column value labels, one per Order.
func (t *Table) Add(to []int64, po ...string) error {
	if len(to) != len(t.toNames) {
		return fmt.Errorf("tss: %d TO values, table has %d TO columns", len(to), len(t.toNames))
	}
	if len(po) != len(t.orders) {
		return fmt.Errorf("tss: %d PO values, table has %d PO columns", len(po), len(t.orders))
	}
	p := core.Point{ID: int32(len(t.ds.Pts))}
	p.TO = make([]int32, len(to))
	for d, v := range to {
		if v < 0 || v > 1<<30 {
			return fmt.Errorf("tss: TO value %d out of supported range [0, 2^30]", v)
		}
		p.TO[d] = int32(v)
	}
	if len(po) > 0 {
		p.PO = make([]int32, len(po))
		for d, label := range po {
			vi, ok := t.orders[d].index[label]
			if !ok {
				return fmt.Errorf("tss: unknown value %q for PO column %d", label, d)
			}
			p.PO[d] = int32(vi)
		}
	}
	t.ds.Pts = append(t.ds.Pts, p)
	t.stats.Store(nil) // row set changed; recomputed lazily
	t.order.Store(nil)
	return nil
}

// MustAdd is Add that panics on error.
func (t *Table) MustAdd(to []int64, po ...string) {
	if err := t.Add(to, po...); err != nil {
		panic(err)
	}
}

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.ds.Pts) }

// Orders returns the table's partially ordered column domains. The
// returned Orders are the table's own (compiled and frozen): inspect
// them with Values/Preferred, but further Prefer calls panic.
func (t *Table) Orders() []*Order { return append([]*Order(nil), t.orders...) }

// RowValues returns row i's raw values: the TO column values and the PO
// column value labels. The slices are fresh copies.
func (t *Table) RowValues(i int) (to []int64, po []string) {
	p := &t.ds.Pts[i]
	to = make([]int64, len(p.TO))
	for d, v := range p.TO {
		to[d] = int64(v)
	}
	po = make([]string, len(p.PO))
	for d, v := range p.PO {
		po[d] = t.orders[d].labels[v]
	}
	return to, po
}

// RowCodes returns row i's stored values without copying: the TO column
// values and, per PO column, the value's index in its Order's Values.
// The slices are the table's own and must not be modified.
func (t *Table) RowCodes(i int) (to, po []int32) {
	p := &t.ds.Pts[i]
	return p.TO, p.PO
}

// Clone returns a copy-on-write snapshot of the table: the new table
// shares the compiled (frozen, immutable) orders and the existing rows'
// storage, but appending to either table never affects the other. This
// is the snapshot hook the serving layer's batched mutations build on —
// clone, append, publish — while readers keep querying the original.
//
// Seal state propagates through Clone: the clone shares the compiled
// domains, so the dyadic indexes a Seal built (on either table, before
// or after cloning) serve both. Sealing a clone while the original is
// answering queries is safe — the index is built once and published
// atomically (see poset.Domain.EnableDyadic).
func (t *Table) Clone() *Table {
	pts := make([]core.Point, len(t.ds.Pts))
	copy(pts, t.ds.Pts)
	nt := newTable(t.toNames, t.orders, &core.Dataset{Pts: pts, Domains: t.ds.Domains})
	nt.stats.Store(t.stats.Load()) // same rows, same statistics
	return nt
}

// Filter returns a copy-on-write snapshot containing only the rows the
// keep predicate admits, renumbered to consecutive row indexes in
// their original order. Like Clone, the result shares the compiled
// orders and the surviving rows' value storage — and, with them, any
// seal state (see Clone).
func (t *Table) Filter(keep func(row int) bool) *Table {
	nt := newTable(t.toNames, t.orders, &core.Dataset{Domains: t.ds.Domains})
	for i := range t.ds.Pts {
		if !keep(i) {
			continue
		}
		p := t.ds.Pts[i]
		p.ID = int32(len(nt.ds.Pts))
		nt.ds.Pts = append(nt.ds.Pts, p)
	}
	return nt
}

// Seal precompiles every per-domain auxiliary index (the dyadic range
// index, and the transitive-closure bitset when the domain fits the
// default memory budget — the dominance kernel's single-word TPrefers
// fast path) that skyline runs would otherwise build lazily on first
// use. A sealed table can serve any number of concurrent Skyline* calls
// without mutating shared state; call it once before sharing a table
// across goroutines. Sealing is idempotent, concurrency-safe (it may
// race queries and other Seal calls, including through Clone/Filter
// copies that share the same compiled domains) and does not freeze
// rows — but rows must not be added while queries are in flight.
func (t *Table) Seal() *Table {
	for _, dom := range t.ds.Domains {
		dom.EnableDyadic()
		dom.EnableClosure(0)
	}
	return t
}

// TableRow is one table row in plain form: the TO column values plus
// one PO value label per Order — the unit ApplyBatch appends.
type TableRow struct {
	TO []int64
	PO []string
}

// BatchDelta records how an ApplyBatch moved rows around: the mapping
// from old to new row indexes and the count of appended rows. It is
// the contract between a table mutation and the delta-driven
// maintenance of the table statistics, the skyline memo and its
// score indexes.
type BatchDelta struct {
	// OldLen and NewLen are the row counts before and after the batch.
	OldLen, NewLen int
	// OldToNew maps each old row index to its new index, -1 if removed.
	OldToNew []int32
	// Added is the number of appended rows, occupying the new indexes
	// NewLen-Added … NewLen-1.
	Added int
}

// ApplyBatch returns a copy-on-write snapshot with the rows named in
// removes (current row indexes, duplicates tolerated) dropped,
// survivors renumbered to consecutive indexes in their original order,
// and the adds appended — plus the BatchDelta describing the move.
// The receiver is unchanged; like Clone, the result shares the
// compiled orders (and their seal state) and the surviving rows' value
// storage. Point work is O(N + batch).
func (t *Table) ApplyBatch(removes []int, adds []TableRow) (*Table, *BatchDelta, error) {
	oldLen := len(t.ds.Pts)
	drop := make([]bool, oldLen)
	for _, r := range removes {
		if r < 0 || r >= oldLen {
			return nil, nil, fmt.Errorf("tss: remove index %d out of range [0, %d)", r, oldLen)
		}
		drop[r] = true
	}
	delta := &BatchDelta{OldLen: oldLen, OldToNew: make([]int32, oldLen), Added: len(adds)}
	nt := newTable(t.toNames, t.orders, &core.Dataset{Domains: t.ds.Domains})
	nt.ds.Pts = make([]core.Point, 0, oldLen-countTrue(drop)+len(adds))
	for i := range t.ds.Pts {
		if drop[i] {
			delta.OldToNew[i] = -1
			continue
		}
		p := t.ds.Pts[i]
		p.ID = int32(len(nt.ds.Pts))
		delta.OldToNew[i] = p.ID
		nt.ds.Pts = append(nt.ds.Pts, p)
	}
	for i, r := range adds {
		if err := nt.Add(r.TO, r.PO...); err != nil {
			return nil, nil, fmt.Errorf("tss: add row %d: %w", i, err)
		}
	}
	delta.NewLen = len(nt.ds.Pts)
	// Statistics ride along incrementally: appended rows widen the
	// maintained bounds in O(batch); only boundary removals re-scan (see
	// plan.Stats.Advance). nt.Add above cleared the fresh table's stats,
	// so store last.
	if old := t.stats.Load(); old != nil {
		nt.stats.Store(old.Advance(t.ds, nt.ds, delta.OldToNew, delta.Added))
	}
	// The skyline memo rides along too: instead of the derived table
	// starting cold, a MemoCache is advanced across the delta — its
	// entries are re-certified by the incremental maintainer rather than
	// recomputed (plan.MemoCache.Advance). Other Cache implementations
	// stay snapshot-scoped and are not inherited.
	if mc, ok := t.queryCache.(*plan.MemoCache); ok {
		nt.queryCache = mc.Advance(t.ds, nt.ds, &core.Delta{OldToNew: delta.OldToNew, Added: delta.Added})
	}
	return nt, delta, nil
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// Row renders row i as a human-readable string.
func (t *Table) Row(i int) string {
	p := &t.ds.Pts[i]
	s := fmt.Sprintf("row %d:", i)
	for d, name := range t.toNames {
		s += fmt.Sprintf(" %s=%d", name, p.TO[d])
	}
	for d := range t.orders {
		s += fmt.Sprintf(" po%d=%s", d, t.orders[d].labels[p.PO[d]])
	}
	return s
}

// Skyline returns the skyline row indexes using sTSS, in emission
// (discovery) order.
func (t *Table) Skyline() []int {
	res, err := t.SkylineWith("stss")
	if err != nil {
		panic(err) // stss is a serving algorithm; the run cannot fail
	}
	return res.Rows
}

// EachSkyline streams skyline rows to fn as they are certified, in
// discovery order; fn returning false stops the enumeration. Because
// sTSS is optimally progressive, stopping after k rows costs only the
// traversal needed for those k rows (plus the R-tree bulk load each
// call pays) — use this for top-k-style consumption over large tables.
func (t *Table) EachSkyline(fn func(row int) bool) {
	cur := core.NewSTSSCursor(t.ds, core.Options{})
	for {
		id, ok := cur.Next()
		if !ok {
			return
		}
		if !fn(int(id)) {
			return
		}
	}
}

// SkylineWith runs the named algorithm (case-insensitive) and returns
// the skyline with its run statistics. A serving algorithm — sfs or
// stss, the ones a plan can run — runs as a Query with the algorithm
// forced, a sequential run pinned and cache routing disabled. A
// baseline — bnl, bbs+, sdc or sdc+ — runs once over the table's rows.
func (t *Table) SkylineWith(algo string) (*SkylineResult, error) {
	if _, serving := core.Lookup(algo); !serving {
		for _, a := range core.Baselines() {
			if strings.EqualFold(a.Name(), algo) {
				res, err := a.Run(t.ds, core.Options{})
				if err != nil {
					return nil, err
				}
				return wrapResult(res), nil
			}
		}
	}
	res, _, err := t.Query(plan.Query{Hints: plan.Hints{
		Algorithm: algo, Parallelism: -1, NoCache: true,
	}})
	return res, err
}

// Query plans and executes a logical skyline query — full, subspace,
// constrained, top-k, in any combination (see plan.Query for the exact
// semantics). Every plan runs SFS's scan unless q forces stss;
// per-table statistics pick the parallelism, predicate placement and
// cache routing, and the run's observed skyline fraction feeds the
// statistics for the next query. The returned Explain documents every
// decision.
func (t *Table) Query(q plan.Query) (*SkylineResult, *plan.Explain, error) {
	return t.QueryContext(context.Background(), q)
}

// QueryContext is Query with cooperative cancellation: ctx is checked
// between pipeline stages, inside the executor's scan loops and every
// few thousand rows of the chosen algorithm's scan.
func (t *Table) QueryContext(ctx context.Context, q plan.Query) (*SkylineResult, *plan.Explain, error) {
	return t.run(ctx, q, nil)
}

// run plans q over the table's rows and derived state (the planner keeps
// the latter away from a query that brings its own orders) and executes
// the plan, through the streaming executor when emit is set.
func (t *Table) run(ctx context.Context, q plan.Query, emit func(plan.StreamRow) error) (*SkylineResult, *plan.Explain, error) {
	env := t.planEnv()
	p, err := plan.New(t.ds, q, env)
	if err != nil {
		return nil, nil, err
	}
	var res *core.Result
	if emit == nil {
		res, err = p.Run(ctx, t.ds, env)
	} else {
		res, err = p.RunStream(ctx, t.ds, env, emit)
	}
	if err != nil {
		return nil, &p.Explain, err
	}
	return wrapResult(res), &p.Explain, nil
}

// QueryStream is QueryContext with progressive delivery: result rows
// are passed to emit the moment they are certified, in stream order,
// before the full result exists. Unranked queries stream through SFS's
// scan of the presorted rows (an unranked top-k stops the scan after K
// rows, and a first-K stream is a prefix of the full stream);
// origin-ideal ranked top-k stops on a sound score threshold;
// everything else computes the buffered result and replays it through
// emit. The returned SkylineResult carries the same rows emit saw plus
// the run's metrics. An emit error aborts the run and is returned
// verbatim.
func (t *Table) QueryStream(ctx context.Context, q plan.Query, emit func(plan.StreamRow) error) (*SkylineResult, *plan.Explain, error) {
	return t.run(ctx, q, emit)
}

// RankPartials computes, per candidate row, this table's partial
// contribution to the named ranking's global score over R — the table
// filtered by q.Where, on q.Subspace's kept dimensions: dominance counts
// for "domcount", dominator-count histograms for "dpidp" (the two
// rankings with per-shard partials; see plan.RankPartials).
// Candidates are value-addressed rather than row indexes: row(i), for
// i in [0, n), is candidate i's TO values and, per PO column, its
// value's index in the column's Order (RowCodes' form). This is the
// shard-side scoring half of distributed ranked top-k, where the
// coordinator's merged skyline rows carry no usable ids for any one
// shard. Dominance is counted under q.Orders when set; q's
// TopK/Rank/Ideal/FWeights fields are ignored.
func (t *Table) RankPartials(ctx context.Context, q plan.Query, rank string, n int, row func(i int) (to []int64, po []int32)) (plan.Partials, error) {
	cands, err := t.wireCandidates(n, row)
	if err != nil {
		return plan.Partials{}, err
	}
	q.TopK, q.Rank, q.Ideal, q.FWeights = 0, plan.RankNone, nil, nil
	return plan.RankPartials(ctx, t.ds, q, rank, cands)
}

// wireCandidates converts value-addressed rows into storage-encoded
// points (ID -1: the candidates are not rows of this table).
func (t *Table) wireCandidates(n int, row func(i int) (to []int64, po []int32)) ([]core.Point, error) {
	cands := make([]core.Point, n)
	for i := range cands {
		to, po := row(i)
		if len(to) != len(t.toNames) {
			return nil, fmt.Errorf("tss: candidate %d has %d TO values, table has %d columns",
				i, len(to), len(t.toNames))
		}
		if len(po) != len(t.orders) {
			return nil, fmt.Errorf("tss: candidate %d has %d PO values, table has %d columns",
				i, len(po), len(t.orders))
		}
		p := core.Point{ID: -1, TO: make([]int32, len(to))}
		for d, v := range to {
			if v < 0 || v > 1<<30 {
				return nil, fmt.Errorf("tss: candidate %d TO value %d out of supported range [0, 2^30]", i, v)
			}
			p.TO[d] = int32(v)
		}
		if len(po) > 0 {
			p.PO = make([]int32, len(po))
			for d, v := range po {
				if v < 0 || int(v) >= len(t.orders[d].labels) {
					return nil, fmt.Errorf("tss: candidate %d: value %d out of range for PO column %d", i, v, d)
				}
				p.PO[d] = v
			}
		}
		cands[i] = p
	}
	return cands, nil
}

// Stats returns the row count and TO bounds of the current rows,
// computing them on first use (ApplyBatch maintains them incrementally
// across batches). The returned value is immutable.
func (t *Table) Stats() *plan.Stats {
	if s := t.stats.Load(); s != nil {
		return s
	}
	s := plan.Analyze(t.ds)
	// A concurrent query may have raced the computation; either result
	// describes the same rows.
	t.stats.CompareAndSwap(nil, s)
	return s
}

// residentOrder returns the table's current rows in SFS's presort
// order, sorting them on first use; resident reports that the order was
// already there. Concurrent first users each sort and the CAS publishes
// a single winner for everyone after; a loser's order describes the
// same rows and dies with its query.
func (t *Table) residentOrder() (order []int32, resident bool) {
	if o := t.order.Load(); o != nil {
		return *o, true
	}
	order = core.SFSOrder(t.ds)
	t.order.CompareAndSwap(nil, &order)
	return order, false
}

// planEnv is the planning context of a query on this table.
func (t *Table) planEnv() plan.Env {
	return plan.Env{Cache: t.queryCache, Order: t.resident}
}

// SetQueryCache attaches a full-skyline cache for the planner's cache
// routing: Query memoises the full-table skyline there and answers
// repeat full queries — and provably-sound post-filter constrained
// queries — from it. The cache must describe this table's exact row
// set; attach it before the table is shared across goroutines, and
// never after rows change. When the cache is a *plan.MemoCache,
// ApplyBatch carries it across mutations by delta maintenance (the
// derived table gets an Advance'd memo); any other implementation is
// snapshot-scoped and not inherited.
func (t *Table) SetQueryCache(c plan.Cache) { t.queryCache = c }

// QueryCache returns the cache attached with SetQueryCache, or the
// maintained memo ApplyBatch derived — nil when the table has none.
func (t *Table) QueryCache() plan.Cache { return t.queryCache }

// SkylineResult is the outcome of a skyline computation.
type SkylineResult struct {
	// Rows holds skyline row indexes in emission order.
	Rows []int
	// EmissionSeconds[i] is the virtual time (CPU + 5 ms per page IO)
	// at which Rows[i] was output — the progressiveness profile. An
	// optimally progressive method (sTSS) emits throughout the run; a
	// non-progressive one (BBS+) stamps everything at the end.
	EmissionSeconds []float64
	// Stats summarises the run's simulated cost.
	Stats Stats
	// Metrics is the full JSON-ready counter export of the run (a
	// superset of Stats), as attached to server query responses.
	Metrics core.MetricsExport
	// CacheHit marks a result answered from a cache of past results (the
	// table's skyline memo, see SetQueryCache, or Dynamic.EnableCache's)
	// without touching any index.
	CacheHit bool
}

// Stats summarises a run: simulated page IOs, dominance checks and
// measured CPU time. TotalSeconds charges each IO at the paper's 5 ms.
type Stats struct {
	PageReads  int64
	PageWrites int64
	DomChecks  int64
	CPUSeconds float64
}

// TotalSeconds is CPU plus the simulated IO charge (5 ms per page).
func (s Stats) TotalSeconds() float64 {
	return s.CPUSeconds + float64(s.PageReads+s.PageWrites)*core.DefaultIOCost.Seconds()
}

func wrapResult(res *core.Result) *SkylineResult {
	out := &SkylineResult{
		Stats: Stats{
			PageReads:  res.Metrics.ReadIOs,
			PageWrites: res.Metrics.WriteIOs,
			DomChecks:  res.Metrics.DomChecks,
			CPUSeconds: res.Metrics.CPU.Seconds(),
		},
		Metrics:  res.Metrics.Export(core.DefaultIOCost),
		CacheHit: res.FromCache,
	}
	if n := len(res.SkylineIDs); n > 0 {
		out.Rows = make([]int, n)
		for i, id := range res.SkylineIDs {
			out.Rows[i] = int(id)
		}
	}
	if n := len(res.Metrics.Emissions); n > 0 {
		out.EmissionSeconds = make([]float64, n)
		for i, e := range res.Metrics.Emissions {
			out.EmissionSeconds[i] = e.Time(core.DefaultIOCost).Seconds()
		}
	}
	return out
}
