package tss

import (
	"sort"
	"testing"
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

func sortedRows(rows []int) []int {
	out := append([]int(nil), rows...)
	sort.Ints(out)
	return out
}

func equalRows(a, b []int) bool {
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

func TestQuickstartFlights(t *testing.T) {
	table := flightsTable(order1())
	// Paper rows p1..p10 are our rows 0..9; Table I first order gives
	// {p1, p5, p6, p9, p10} = rows {0, 4, 5, 8, 9}.
	want := []int{0, 4, 5, 8, 9}
	if got := sortedRows(table.Skyline()); !equalRows(got, want) {
		t.Fatalf("Skyline() = %v, want %v", got, want)
	}
	// Every method agrees.
	for _, algo := range []string{"stss", "bbs+", "sdc", "sdc+", "bnl", "sfs"} {
		res, err := table.SkylineWith(algo)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if got := sortedRows(res.Rows); !equalRows(got, want) {
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
	if got := sortedRows(res.Rows); !equalRows(got, want) {
		t.Fatalf("dynamic skyline = %v, want %v", got, want)
	}

	// The baseline agrees but pays for its rebuild.
	base, err := dyn.QueryBaseline(NewOrder("a", "b", "c", "d").Prefer("b", "a"))
	if err != nil {
		t.Fatal(err)
	}
	if got := sortedRows(base.Rows); !equalRows(got, want) {
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
	if got := sortedRows(res2.Rows); !equalRows(got, want2) {
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
	if !equalRows(streamed, full) {
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
	if got := sortedRows(table.Skyline()); !equalRows(got, want) {
		t.Fatalf("pure-TO skyline = %v, want %v", got, want)
	}
}

// TestSkylineWith: every registered algorithm is reachable by name from
// the public API; PO-capable ones agree on the flights example, TO-only
// ones surface their rejection as an error.
func TestSkylineWith(t *testing.T) {
	table := flightsTable(order1())
	want := sortedRows(table.Skyline())
	algos := Algorithms()
	if len(algos) < 8 {
		t.Fatalf("Algorithms() lists %d entries, want >= 8", len(algos))
	}
	for _, info := range algos {
		res, err := table.SkylineWith(info.Name)
		if !info.POCapable {
			if err == nil {
				t.Errorf("%s: expected PO rejection", info.Name)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", info.Name, err)
			continue
		}
		if got := sortedRows(res.Rows); !equalRows(got, want) {
			t.Errorf("%s = %v, want %v", info.Name, got, want)
		}
	}
	if _, err := table.SkylineWith("nope"); err == nil {
		t.Error("unknown algorithm must error")
	}
}

// TestSkylineParallel: the partition-and-merge executor matches the
// sequential result through the public API.
func TestSkylineParallel(t *testing.T) {
	table := flightsTable(order1())
	want := sortedRows(table.Skyline())
	for _, p := range []int{0, 1, 2, 4} {
		res, err := table.SkylineParallel("stss", p)
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		if got := sortedRows(res.Rows); !equalRows(got, want) {
			t.Errorf("parallelism %d: %v, want %v", p, got, want)
		}
	}
	if _, err := table.SkylineParallel("nope", 2); err == nil {
		t.Error("unknown algorithm must error")
	}
	if _, err := table.SkylineParallel("salsa", 2); err == nil {
		t.Error("parallel(salsa) on PO table must error")
	}
}

// TestMethodsViaRegistry: registry lookup is case-insensitive at the
// public API — the algorithms' display names (sTSS, BBS+, …) resolve
// like the canonical lowercase ones and return the same skyline.
func TestMethodsViaRegistry(t *testing.T) {
	table := flightsTable(order1())
	want := sortedRows(table.Skyline())
	for _, name := range []string{"sTSS", "BBS+", "SDC", "SDC+", "BNL", "SFS"} {
		res, err := table.SkylineWith(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := sortedRows(res.Rows); !equalRows(got, want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}
