package tss

import (
	"context"
	"testing"

	"repro/internal/plan"
	"repro/internal/poset"
)

// queryTestTable builds a small mixed table: price/stops TO columns and
// one diamond-ordered PO column a→{b,c}→d.
func queryTestTable(t *testing.T) *Table {
	t.Helper()
	o := NewOrder("a", "b", "c", "d")
	o.Prefer("a", "b").Prefer("a", "c").Prefer("b", "d").Prefer("c", "d")
	table := NewTable([]string{"price", "stops"}, o)
	labels := []string{"a", "b", "c", "d"}
	for i := 0; i < 80; i++ {
		table.MustAdd([]int64{int64((i * 37) % 100), int64((i*11 + 5) % 60)}, labels[i%4])
	}
	return table
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestQueryFullMatchesSkyline: the zero query is the full skyline.
func TestQueryFullMatchesSkyline(t *testing.T) {
	table := queryTestTable(t)
	res, ex, err := table.Query(plan.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Variant != "full" {
		t.Fatalf("variant %q", ex.Variant)
	}
	if !equalInts(sortedInts(res.Rows), sortedInts(table.Skyline())) {
		t.Fatalf("full query %v != Skyline %v", sortedInts(res.Rows), sortedInts(table.Skyline()))
	}
	if ex.Algorithm == "" || ex.ObservedSeconds < 0 {
		t.Fatalf("explain not filled: %+v", ex)
	}
}

// TestQueryConstrainedMatchesFilter: a constrained skyline equals the
// skyline of the Filter()ed table mapped back to original row indexes —
// an oracle entirely at the tss layer (the plan package's own oracle is
// exercised by its fuzz harness).
func TestQueryConstrainedMatchesFilter(t *testing.T) {
	table := queryTestTable(t)
	for _, pred := range []plan.Predicate{
		{Kind: plan.TORange, Dim: 0, HasHi: true, Hi: 40},
		{Kind: plan.TORange, Dim: 0, HasLo: true, Lo: 60},
		{Kind: plan.POIn, Dim: 0, In: []int32{0, 1}},
	} {
		keep := func(row int) bool {
			to, po := table.RowValues(row)
			switch pred.Kind {
			case plan.TORange:
				v := to[pred.Dim]
				if pred.HasHi && v > pred.Hi {
					return false
				}
				if pred.HasLo && v < pred.Lo {
					return false
				}
				return true
			default:
				for _, a := range pred.In {
					if po[pred.Dim] == table.orders[pred.Dim].labels[a] {
						return true
					}
				}
				return false
			}
		}
		var keptRows []int
		for i := 0; i < table.Len(); i++ {
			if keep(i) {
				keptRows = append(keptRows, i)
			}
		}
		var want []int
		for _, r := range table.Filter(keep).Skyline() {
			want = append(want, keptRows[r])
		}
		res, _, err := table.Query(plan.Query{Where: []plan.Predicate{pred}})
		if err != nil {
			t.Fatal(err)
		}
		if !equalInts(sortedInts(res.Rows), sortedInts(want)) {
			t.Fatalf("pred %+v: got %v want %v", pred, sortedInts(res.Rows), sortedInts(want))
		}
	}
}

// TestQuerySubspaceMatchesRebuiltTable: a subspace skyline equals the
// skyline of a table built from only the kept columns.
func TestQuerySubspaceMatchesRebuiltTable(t *testing.T) {
	table := queryTestTable(t)
	sub := NewTable([]string{"price"})
	for i := 0; i < table.Len(); i++ {
		to, _ := table.RowValues(i)
		sub.MustAdd([]int64{to[0]})
	}
	want := sub.Skyline()
	res, ex, err := table.Query(plan.Query{Subspace: &plan.Subspace{TO: []int{0}}})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Variant != "subspace" {
		t.Fatalf("variant %q", ex.Variant)
	}
	if !equalInts(sortedInts(res.Rows), sortedInts(want)) {
		t.Fatalf("subspace: got %v want %v", sortedInts(res.Rows), sortedInts(want))
	}
}

// TestQueryTopK: ranked top-k returns K skyline members; unranked top-k
// takes the cursor route.
func TestQueryTopK(t *testing.T) {
	table := queryTestTable(t)
	full := table.Skyline()
	member := make(map[int]bool, len(full))
	for _, r := range full {
		member[r] = true
	}
	for _, q := range []plan.Query{
		{TopK: 3},
		{TopK: 3, Rank: plan.RankDomCount},
		{TopK: 3, Rank: plan.RankIdeal, Ideal: []int64{0, 0}},
	} {
		res, ex, err := table.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want := 3
		if len(full) < want {
			want = len(full)
		}
		if len(res.Rows) != want {
			t.Fatalf("rank %q: %d rows, want %d", q.Rank, len(res.Rows), want)
		}
		for _, r := range res.Rows {
			if !member[r] {
				t.Fatalf("rank %q: row %d not in the skyline", q.Rank, r)
			}
		}
		if q.Rank == plan.RankNone && ex.Route != plan.RouteCursor {
			t.Fatalf("unranked top-k took route %q", ex.Route)
		}
	}
}

// TestQueryStatsMaintainedByApplyBatch: batches advance the planner
// statistics without a fresh full scan being observable (bounds stay
// exact through adds and boundary removals).
func TestQueryStatsMaintainedByApplyBatch(t *testing.T) {
	table := queryTestTable(t)
	s := table.Stats()
	if s.Rows != table.Len() {
		t.Fatalf("stats rows %d, table %d", s.Rows, table.Len())
	}
	next, _, err := table.ApplyBatch(nil, []TableRow{{TO: []int64{5000, 1}, PO: []string{"a"}}})
	if err != nil {
		t.Fatal(err)
	}
	s2 := next.Stats()
	if s2.Rows != table.Len()+1 || s2.TO[0].Max != 5000 {
		t.Fatalf("advanced stats %+v", s2.TO[0])
	}
	// Remove the outlier again: the boundary removal forces a rescan
	// back to the true maximum.
	back, _, err := next.ApplyBatch([]int{table.Len()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := back.Stats().TO[0].Max, s.TO[0].Max; got != want {
		t.Fatalf("max after boundary removal %d, want %d", got, want)
	}
}

// TestQueryCacheOnTable: an attached query cache serves the repeat full
// skyline without recomputation and keeps answers exact.
func TestQueryCacheOnTable(t *testing.T) {
	table := queryTestTable(t)
	table.SetQueryCache(plan.NewMemoCache())
	first, ex1, err := table.Query(plan.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if ex1.CacheHit {
		t.Fatal("cold query hit the cache")
	}
	second, ex2, err := table.Query(plan.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if !ex2.CacheHit || !second.CacheHit {
		t.Fatalf("repeat full query missed the cache: %+v", ex2)
	}
	if !equalInts(sortedInts(first.Rows), sortedInts(second.Rows)) {
		t.Fatal("cached answer differs")
	}
}

// TestQueryContextCancel: a canceled context aborts before work.
func TestQueryContextCancel(t *testing.T) {
	table := queryTestTable(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := table.QueryContext(ctx, plan.Query{}); err == nil {
		t.Fatal("canceled query succeeded")
	}
}

// TestExplainCursorRoute: a plan SFS's progressive scan serves — the
// early-exit top-k of plan.New and every progressive RunStream shape —
// names the dominance kernel its scan runs on ("interval" under
// Hints.NoKernel) and says whether its presorted order was resident on
// the table or sorted by this query. Plans that scan no presorted
// order keep their kernel label and name no cursor index.
func TestExplainCursorRoute(t *testing.T) {
	ctx := context.Background()
	drop := func(plan.StreamRow) error { return nil }
	where := []plan.Predicate{{Kind: plan.TORange, Dim: 1, HasLo: true, Lo: 20}}
	const bitset = "bitset+columnar"

	table := queryTestTable(t)
	_, ex, err := table.Query(plan.Query{TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Route != plan.RouteCursor || ex.Algorithm != "sfs" || ex.Kernel != bitset || ex.CursorIndex != "built" {
		t.Fatalf("cold early-exit top-k explain: %+v", ex)
	}
	for _, run := range []struct {
		name   string
		q      plan.Query
		want   string
		kernel string
	}{
		{"first-k", plan.Query{TopK: 3}, "resident", bitset},
		{"full", plan.Query{}, "resident", bitset},
		{"threshold top-k", plan.Query{TopK: 3, Rank: plan.RankIdeal}, "resident", bitset},
		{"subspace", plan.Query{Subspace: &plan.Subspace{TO: []int{0}, PO: []int{0}}}, "built", bitset},
		{"push-down", plan.Query{Where: where}, "built", bitset},
		{"no kernel", plan.Query{Hints: plan.Hints{NoKernel: true}}, "resident", "interval"},
	} {
		_, ex, err := table.QueryStream(ctx, run.q, drop)
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		if ex.Route != plan.RouteCursor || ex.Algorithm != "sfs" || ex.Parallelism != 0 {
			t.Fatalf("%s: not a cursor plan: %+v", run.name, ex)
		}
		if ex.Kernel != run.kernel {
			t.Errorf("%s: cursor-route explain names kernel %q, want %q", run.name, ex.Kernel, run.kernel)
		}
		if ex.CursorIndex != run.want {
			t.Errorf("%s: cursorIndex %q, want %q", run.name, ex.CursorIndex, run.want)
		}
	}

	_, ex, err = table.Query(plan.Query{Hints: plan.Hints{Algorithm: "stss"}})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Kernel != bitset || ex.CursorIndex != "" {
		t.Fatalf("kernel plan explain: kernel %q cursorIndex %q", ex.Kernel, ex.CursorIndex)
	}
}

// TestOrdersQueryIsRequestScoped: table-scoped derived state never
// answers a request-scoped question. Beside a warm memo (full, subspace
// and score-index entries) and a resident scan order — all describing
// the table's own orders — a query bringing its own Orders returns the
// skyline under *those* (dTSS, the paper's independent structure, is
// the oracle), sorts its own scan order, scores cold, leaves every
// table entry as it was, memoises under the DAG's signature for the
// life of the snapshot, and misses again — with the right answer —
// after a batch.
func TestOrdersQueryIsRequestScoped(t *testing.T) {
	ctx := context.Background()
	drop := func(plan.StreamRow) error { return nil }
	table := queryTestTable(t)
	memo := plan.NewMemoCache()
	table.SetQueryCache(memo)
	sub := &plan.Subspace{TO: []int{0}, PO: []int{0}}
	for _, q := range []plan.Query{{}, {Subspace: sub}, {TopK: 3, Rank: plan.RankDPIDP}} {
		if _, _, err := table.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	if _, ex, err := table.QueryStream(ctx, plan.Query{Hints: plan.Hints{NoCache: true}}, drop); err != nil || ex.CursorIndex == "" {
		t.Fatalf("warming the resident order: %v %+v", err, ex)
	}
	full0, _, _ := memo.GetFull()
	sub0, _, _ := memo.GetSubspace(plan.SubspaceKey(sub))
	idx0, ok := memo.GetScoreIndex()
	if full0 == nil || sub0 == nil || !ok || table.order.Load() == nil {
		t.Fatal("table-scoped state not warm")
	}

	// d over b and c, a incomparable: nothing like the table's diamond.
	inverted := func() *Order { return NewOrder("a", "b", "c", "d").Prefer("d", "b").Prefer("d", "c") }
	dom, err := inverted().compile()
	if err != nil {
		t.Fatal(err)
	}
	orders := []*poset.Domain{dom}
	oracle := func(tb *Table) []int {
		res, err := tb.PrepareDynamic().Query(inverted())
		if err != nil {
			t.Fatal(err)
		}
		return sortedInts(res.Rows)
	}
	want := oracle(table)
	if equalInts(want, sortedInts(table.Skyline())) {
		t.Fatal("fixture: the query orders do not change the skyline")
	}
	member := make(map[int]bool)
	for _, r := range want {
		member[r] = true
	}

	firstK, ex, err := table.QueryStream(ctx, plan.Query{Orders: orders, TopK: 3}, drop)
	if err != nil || len(firstK.Rows) != 3 || ex.CursorIndex != "built" {
		t.Fatalf("first-K stream under orders: %v rows %v explain %+v", err, firstK, ex)
	}
	for _, r := range firstK.Rows {
		if !member[r] {
			t.Fatalf("first-K stream: row %d is not in the skyline under the query's orders", r)
		}
	}
	ranked, ex, err := table.Query(plan.Query{Orders: orders, TopK: 3, Rank: plan.RankDPIDP})
	if err != nil || ex.RankedFrom != "cold" || ex.CursorIndex == "resident" {
		t.Fatalf("ranked under orders: %v explain %+v", err, ex)
	}
	naive, err := plan.Naive(table.ds, plan.Query{Orders: orders, TopK: 3, Rank: plan.RankDPIDP})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range naive {
		if ranked.Rows[i] != int(id) {
			t.Fatalf("ranked under orders: %v, oracle %v", ranked.Rows, naive)
		}
	}
	// The ranked run memoised the skyline it ranked, under the DAG's
	// signature: the same DAG, rebuilt from scratch, is §V-B's cache of
	// past results.
	dom2, _ := inverted().compile()
	res, ex, err := table.Query(plan.Query{Orders: []*poset.Domain{dom2}})
	if err != nil || !ex.CacheHit || !res.CacheHit || ex.Maintained || !equalInts(sortedInts(res.Rows), want) {
		t.Fatalf("full under the same DAG: %v rows %v want %v explain %+v", err, sortedInts(res.Rows), want, ex)
	}

	full1, _, _ := memo.GetFull()
	sub1, _, _ := memo.GetSubspace(plan.SubspaceKey(sub))
	if idx1, _ := memo.GetScoreIndex(); idx1 != idx0 || &full1[0] != &full0[0] || &sub1[0] != &sub0[0] {
		t.Fatal("orders queries touched the table's own memo entries")
	}

	next, _, err := table.ApplyBatch([]int{want[0]}, []TableRow{{TO: []int64{1, 1}, PO: []string{"c"}}})
	if err != nil {
		t.Fatal(err)
	}
	res, ex, err = next.Query(plan.Query{Orders: orders})
	if err != nil || ex.CacheHit || !equalInts(sortedInts(res.Rows), oracle(next)) {
		t.Fatalf("after a batch: %v rows %v want %v explain %+v", err, sortedInts(res.Rows), oracle(next), ex)
	}

	// Malformed orders are refused before anything runs.
	two, _ := NewOrder("x", "y").compile()
	for _, bad := range [][]*poset.Domain{{}, {dom, dom}, {two}, {nil}} {
		if _, _, err := table.Query(plan.Query{Orders: bad}); err == nil {
			t.Fatalf("orders %v accepted", bad)
		}
	}
}
