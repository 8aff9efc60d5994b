package tss

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/plan"
)

// flightsTable builds the paper's introduction example through the
// public API.
func flightsTable(o *Order) *Table {
	t := NewTable([]string{"price", "stops"}, o)
	rows := []struct {
		price, stops int64
		airline      string
	}{
		{1800, 0, "a"}, {2000, 0, "a"}, {1800, 0, "b"}, {1200, 1, "b"}, {1400, 1, "a"},
		{1000, 1, "b"}, {1000, 1, "d"}, {1800, 1, "c"}, {500, 2, "d"}, {1200, 2, "c"},
	}
	for _, r := range rows {
		t.MustAdd([]int64{r.price, r.stops}, r.airline)
	}
	return t
}

func order1() *Order {
	return NewOrder("a", "b", "c", "d").
		Prefer("a", "b").Prefer("a", "c").Prefer("b", "d").Prefer("c", "d")
}

func TestQuickstartFlights(t *testing.T) {
	table := flightsTable(order1())
	// Paper rows p1..p10 are our rows 0..9; Table I first order gives
	// {p1, p5, p6, p9, p10} = rows {0, 4, 5, 8, 9}.
	want := []int{0, 4, 5, 8, 9}
	if got := slices.Sorted(slices.Values(table.Skyline())); !slices.Equal(got, want) {
		t.Fatalf("Skyline() = %v, want %v", got, want)
	}
	// Every method agrees.
	for _, algo := range []string{"stss", "bbs+", "sdc", "sdc+", "bnl", "sfs"} {
		res, err := table.SkylineWith(algo)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if got := slices.Sorted(slices.Values(res.Rows)); !slices.Equal(got, want) {
			t.Errorf("%s = %v, want %v", algo, got, want)
		}
	}
}

func TestOrderSemantics(t *testing.T) {
	o := order1()
	if !o.Preferred("a", "d") {
		t.Error("preference must be transitive: a→b→d")
	}
	if o.Preferred("b", "c") || o.Preferred("c", "b") {
		t.Error("b and c are incomparable")
	}
	if o.Preferred("a", "a") {
		t.Error("preference is irreflexive")
	}
	if o.Preferred("z", "a") || o.Preferred("a", "z") {
		t.Error("unknown labels are never preferred")
	}
	vals := o.Values()
	if len(vals) != 4 || vals[0] != "a" {
		t.Errorf("Values() = %v", vals)
	}
}

func TestOrderErrors(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate labels must panic")
		}
	}()
	NewOrder("x", "x")
}

func TestOrderCyclicPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("cyclic preferences must panic at compile")
		}
	}()
	o := NewOrder("x", "y").Prefer("x", "y").Prefer("y", "x")
	NewTable(nil, o)
}

func TestOrderFrozenAfterUse(t *testing.T) {
	o := order1()
	NewTable([]string{"x"}, o)
	defer func() {
		if recover() == nil {
			t.Error("Prefer after compile must panic")
		}
	}()
	o.Prefer("a", "d")
}

func TestAddValidation(t *testing.T) {
	table := NewTable([]string{"x"}, NewOrder("u", "v"))
	if err := table.Add([]int64{1, 2}, "u"); err == nil {
		t.Error("wrong TO arity must fail")
	}
	if err := table.Add([]int64{1}); err == nil {
		t.Error("missing PO value must fail")
	}
	if err := table.Add([]int64{1}, "w"); err == nil {
		t.Error("unknown PO label must fail")
	}
	if err := table.Add([]int64{-1}, "u"); err == nil {
		t.Error("negative TO value must fail")
	}
	if err := table.Add([]int64{1}, "u"); err != nil {
		t.Errorf("valid row rejected: %v", err)
	}
	if table.Len() != 1 {
		t.Errorf("Len() = %d", table.Len())
	}
}

func TestRowRendering(t *testing.T) {
	table := flightsTable(order1())
	s := table.Row(0)
	if s != "row 0: price=1800 stops=0 po0=a" {
		t.Errorf("Row(0) = %q", s)
	}
}

func TestStats(t *testing.T) {
	table := flightsTable(order1())
	res, err := table.SkylineWith("stss")
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PageReads == 0 {
		t.Error("stats must report page reads")
	}
	if res.Stats.TotalSeconds() <= res.Stats.CPUSeconds {
		t.Error("TotalSeconds must include the IO charge")
	}
}

func TestDynamicQueries(t *testing.T) {
	table := flightsTable(order1())
	dyn := table.PrepareDynamic()
	if dyn.Groups() != 4 {
		t.Errorf("Groups() = %d, want 4 (a,b,c,d)", dyn.Groups())
	}

	// Table I second order, supplied dynamically: only b preferred to a.
	q := NewOrder("a", "b", "c", "d").Prefer("b", "a")
	res, err := dyn.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 5, 6, 7, 8, 9} // p3, p6, p7, p8, p9, p10
	if got := slices.Sorted(slices.Values(res.Rows)); !slices.Equal(got, want) {
		t.Fatalf("dynamic skyline = %v, want %v", got, want)
	}

	// The baseline agrees but pays for its rebuild.
	base, err := dyn.QueryBaseline(NewOrder("a", "b", "c", "d").Prefer("b", "a"))
	if err != nil {
		t.Fatal(err)
	}
	if got := slices.Sorted(slices.Values(base.Rows)); !slices.Equal(got, want) {
		t.Fatalf("baseline skyline = %v, want %v", got, want)
	}
	if base.Stats.PageWrites == 0 {
		t.Error("baseline must charge rebuild writes")
	}

	// Re-querying with a different order needs no re-preparation.
	res2, err := dyn.Query(order1())
	if err != nil {
		t.Fatal(err)
	}
	want2 := []int{0, 4, 5, 8, 9}
	if got := slices.Sorted(slices.Values(res2.Rows)); !slices.Equal(got, want2) {
		t.Fatalf("second dynamic skyline = %v, want %v", got, want2)
	}
}

func TestDynamicQueryValidation(t *testing.T) {
	table := flightsTable(order1())
	dyn := table.PrepareDynamic()
	if _, err := dyn.Query(); err == nil {
		t.Error("missing orders must fail")
	}
	if _, err := dyn.Query(NewOrder("a", "b")); err == nil {
		t.Error("mis-sized order must fail")
	}
	if _, err := dyn.Query(NewOrder("a", "b", "c", "x")); err == nil {
		t.Error("mismatched labels must fail")
	}
}

func TestEachSkylineStreams(t *testing.T) {
	table := flightsTable(order1())
	full := table.Skyline()
	var streamed []int
	table.EachSkyline(func(row int) bool {
		streamed = append(streamed, row)
		return true
	})
	if !slices.Equal(streamed, full) {
		t.Fatalf("streamed %v, batch %v", streamed, full)
	}
	// Early stop after two rows.
	var first2 []int
	table.EachSkyline(func(row int) bool {
		first2 = append(first2, row)
		return len(first2) < 2
	})
	if len(first2) != 2 || first2[0] != full[0] || first2[1] != full[1] {
		t.Fatalf("first2 = %v, want prefix of %v", first2, full)
	}
}

func TestPureTOTable(t *testing.T) {
	table := NewTable([]string{"x", "y"})
	table.MustAdd([]int64{1, 4})
	table.MustAdd([]int64{2, 2})
	table.MustAdd([]int64{4, 1})
	table.MustAdd([]int64{3, 3}) // dominated by (2,2)
	want := []int{0, 1, 2}
	if got := slices.Sorted(slices.Values(table.Skyline())); !slices.Equal(got, want) {
		t.Fatalf("pure-TO skyline = %v, want %v", got, want)
	}
}

// TestSkylineWith: every serving algorithm and baseline is reachable
// by name from the public API and agrees on the flights example; the
// retired less and an unknown name error.
func TestSkylineWith(t *testing.T) {
	table := flightsTable(order1())
	want := slices.Sorted(slices.Values(table.Skyline()))
	for _, name := range []string{"bbs+", "bnl", "sdc", "sdc+", "sfs", "stss"} {
		res, err := table.SkylineWith(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if got := slices.Sorted(slices.Values(res.Rows)); !slices.Equal(got, want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if _, err := table.SkylineWith("less"); err == nil {
		t.Error("less: expected an unknown-algorithm error")
	}
	if _, err := table.SkylineWith("nope"); err == nil {
		t.Error("unknown algorithm must error")
	}
}

// TestSkylineParallel: a plan forced onto the partition-and-merge
// executor (Hints.Parallelism) matches the sequential result.
func TestSkylineParallel(t *testing.T) {
	table := flightsTable(order1())
	want := slices.Sorted(slices.Values(table.Skyline()))
	parallel := func(algo string, p int) (*SkylineResult, error) {
		res, _, err := table.Query(plan.Query{Hints: plan.Hints{
			Algorithm: algo, Parallelism: p, NoCache: true,
		}})
		return res, err
	}
	for _, p := range []int{0, 1, 2, 4} {
		res, err := parallel("stss", p)
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		if got := slices.Sorted(slices.Values(res.Rows)); !slices.Equal(got, want) {
			t.Errorf("parallelism %d: %v, want %v", p, got, want)
		}
	}
	if _, err := parallel("nope", 2); err == nil {
		t.Error("unknown algorithm must error")
	}
	if _, err := parallel("less", 2); err == nil {
		t.Error("parallel(less) must error: less is no algorithm")
	}
}

// TestMethodsViaRegistry: name lookup is case-insensitive at the
// public API — the algorithms' display names (sTSS, BBS+, …) resolve
// like the canonical lowercase ones and return the same skyline.
func TestMethodsViaRegistry(t *testing.T) {
	table := flightsTable(order1())
	want := slices.Sorted(slices.Values(table.Skyline()))
	for _, name := range []string{"sTSS", "BBS+", "SDC", "SDC+", "BNL", "SFS"} {
		res, err := table.SkylineWith(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := slices.Sorted(slices.Values(res.Rows)); !slices.Equal(got, want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// freshSequence is the emission sequence of an SFS run that sorts the
// table's current rows itself — what every scan over the resident
// order must reproduce.
func freshSequence(t *Table) ([]int, core.Metrics) {
	res := core.SFS(t.ds, core.Options{})
	rows := make([]int, len(res.SkylineIDs))
	for i, id := range res.SkylineIDs {
		rows[i] = int(id)
	}
	return rows, res.Metrics
}

// streamRows runs q as a progressive stream and returns the rows in
// emission order with the run's explain and metrics.
func streamRows(t *testing.T, table *Table, q plan.Query) ([]int, *plan.Explain, core.MetricsExport) {
	t.Helper()
	var rows []int
	res, ex, err := table.QueryStream(context.Background(), q, func(r plan.StreamRow) error {
		rows = append(rows, int(r.ID))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows, ex, res.Metrics
}

// TestResidentIndexConcurrentColdStart: full and first-K streams opened
// concurrently on a sealed table that has never sorted its scan order
// race the lazy sort against itself; every stream still emits the fresh
// SFS sequence, and one order is left for everyone after.
func TestResidentIndexConcurrentColdStart(t *testing.T) {
	table := randTableT(rand.New(rand.NewSource(7)), 600, 2, 6).Seal()
	want, _ := freshSequence(table)
	const k = 5
	if len(want) <= k {
		t.Fatalf("skyline of %d rows is too small for a first-%d prefix", len(want), k)
	}
	if table.order.Load() != nil {
		t.Fatal("Seal sorted the scan order")
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			q, exp := plan.Query{}, want
			if g%2 == 1 {
				q, exp = plan.Query{TopK: k}, want[:k]
			}
			<-start
			var rows []int
			_, _, err := table.QueryStream(context.Background(), q, func(r plan.StreamRow) error {
				rows = append(rows, int(r.ID))
				return nil
			})
			if err != nil {
				t.Error(err)
			} else if !slices.Equal(rows, exp) {
				t.Errorf("stream %d emitted %v, fresh SFS %v", g, rows, exp)
			}
		}(g)
	}
	close(start)
	wg.Wait()
	ix := table.order.Load()
	if ix == nil {
		t.Fatal("no order resident after eight streams")
	}
	if _, ex, _ := streamRows(t, table, plan.Query{}); ex.CursorIndex != "resident" || table.order.Load() != ix {
		t.Fatalf("stream after the cold start: cursorIndex %q, order replaced %v", ex.CursorIndex, table.order.Load() != ix)
	}
}

// TestResidentIndexLifetime walks one table through its scan order's
// life: nothing but an SFS scan over the table's own rows sorts it, the
// second such query finds it resident and scans it exactly as a fresh
// SFS run would, NoCache does not bypass it, and Add drops it.
func TestResidentIndexLifetime(t *testing.T) {
	table := randTableT(rand.New(rand.NewSource(11)), 500, 2, 6).Seal()
	table.Stats()
	if _, _, err := table.Query(plan.Query{Hints: plan.Hints{Algorithm: "stss"}}); err != nil {
		t.Fatal(err)
	}
	// Projected and push-down-filtered streams scan other coordinates
	// or other rows: they neither use nor sort the table's order.
	for _, q := range []plan.Query{
		{Subspace: &plan.Subspace{TO: []int{0}, PO: []int{0}}},
		{Where: []plan.Predicate{{Kind: plan.TORange, Dim: 1, HasLo: true, Lo: 3}}},
	} {
		if _, ex, _ := streamRows(t, table, q); ex.CursorIndex != "built" {
			t.Fatalf("variant %q: cursorIndex %q, want built", ex.Variant, ex.CursorIndex)
		}
	}
	if table.order.Load() != nil {
		t.Fatal("order sorted before any scan ran over the table's own rows")
	}

	want, fresh := freshSequence(table)
	first, ex, _ := streamRows(t, table, plan.Query{})
	if ex.CursorIndex != "built" || !slices.Equal(first, want) {
		t.Fatalf("first stream: cursorIndex %q, rows %v, want built %v", ex.CursorIndex, first, want)
	}
	ix := table.order.Load()
	if ix == nil {
		t.Fatal("first stream left no order behind")
	}
	second, ex, m := streamRows(t, table, plan.Query{Hints: plan.Hints{NoCache: true}})
	if ex.CursorIndex != "resident" || !slices.Equal(second, want) || table.order.Load() != ix {
		t.Fatalf("second stream: cursorIndex %q, resorted %v, rows %v, want %v",
			ex.CursorIndex, table.order.Load() != ix, second, want)
	}
	if m.DomChecks != fresh.DomChecks || m.DomChecks == 0 {
		t.Fatalf("resident scan %+v, fresh SFS %+v", m, fresh)
	}
	// A buffered sequential sfs run scans the same order. Forced sTSS and
	// EachSkyline bulk-load an R-tree of their own and leave it alone.
	res, ex, err := table.Query(plan.Query{Hints: plan.Hints{Algorithm: "sfs", Parallelism: -1, NoCache: true}})
	if err != nil {
		t.Fatal(err)
	}
	if ex.CursorIndex != "resident" || !slices.Equal(res.Rows, want) {
		t.Fatalf("buffered sfs: cursorIndex %q, rows %v, want %v", ex.CursorIndex, res.Rows, want)
	}
	res, ex, err = table.Query(plan.Query{Hints: plan.Hints{Algorithm: "stss", Parallelism: -1, NoCache: true}})
	if err != nil {
		t.Fatal(err)
	}
	if ex.CursorIndex != "" || !slices.Equal(slices.Sorted(slices.Values(res.Rows)), slices.Sorted(slices.Values(want))) {
		t.Fatalf("buffered stss: cursorIndex %q, rows %v, want the set %v", ex.CursorIndex, res.Rows, want)
	}
	var each []int
	table.EachSkyline(func(row int) bool { each = append(each, row); return true })
	if !slices.Equal(slices.Sorted(slices.Values(each)), slices.Sorted(slices.Values(want))) || table.order.Load() != ix {
		t.Fatalf("EachSkyline: rows %v, want the set %v (resorted %v)", each, want, table.order.Load() != ix)
	}

	// A row nothing can dominate (best TO values, a value no other is
	// preferred to): the order of the old row set does not hold it.
	top := 0
	for v := range table.orders[0].labels {
		if table.ds.Domains[0].Ord(int32(v)) == 0 {
			top = v
		}
	}
	table.MustAdd([]int64{0, 0}, table.orders[0].labels[top])
	if table.order.Load() != nil {
		t.Fatal("Add kept the order of the old row set")
	}
	want, _ = freshSequence(table)
	after, ex, _ := streamRows(t, table, plan.Query{})
	if ex.CursorIndex != "built" || !slices.Equal(after, want) {
		t.Fatalf("stream after Add: cursorIndex %q, rows %v, want built %v", ex.CursorIndex, after, want)
	}
	if i := sort.SearchInts(slices.Sorted(slices.Values(after)), table.Len()-1); i == len(after) {
		t.Fatalf("stream after Add %v misses the new row %d", after, table.Len()-1)
	}
}

// TestResidentIndexEmptyTable: the order of no rows serves empty streams.
func TestResidentIndexEmptyTable(t *testing.T) {
	table := NewTable([]string{"x"}, order1())
	for i := 0; i < 2; i++ {
		if rows, _, _ := streamRows(t, table, plan.Query{}); len(rows) != 0 {
			t.Fatalf("empty table streamed %v", rows)
		}
	}
	table.EachSkyline(func(row int) bool {
		t.Fatalf("empty table emitted row %d", row)
		return false
	})
}

// TestResidentIndexDiesWithTable: the table is its order's only owner —
// no registry keeps a retired snapshot's order alive.
func TestResidentIndexDiesWithTable(t *testing.T) {
	collected := make(chan struct{})
	func() {
		table := randTableT(rand.New(rand.NewSource(3)), 200, 2, 6)
		streamRows(t, table, plan.Query{TopK: 1})
		runtime.SetFinalizer(table.order.Load(), func(*[]int32) { close(collected) })
	}()
	for i := 0; i < 200; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(5 * time.Millisecond):
		}
	}
	t.Fatal("order still reachable after its table was dropped")
}
