package tss

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/poset"
)

// randOrderT builds a random acyclic preference order over k labelled
// values ("0".."k-1"): edges always point from earlier to later in a
// random permutation.
func randOrderT(rng *rand.Rand, k int, p float64) *Order {
	labels := make([]string, k)
	for i := range labels {
		labels[i] = fmt.Sprint(i)
	}
	o := NewOrder(labels...)
	perm := rng.Perm(k)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if rng.Float64() < p {
				o.Prefer(labels[perm[i]], labels[perm[j]])
			}
		}
	}
	return o
}

func randTableT(rng *rand.Rand, n, nTO, poSize int) *Table {
	names := make([]string, nTO)
	for i := range names {
		names[i] = fmt.Sprintf("to%d", i)
	}
	t := NewTable(names, randOrderT(rng, poSize, 0.4))
	for i := 0; i < n; i++ {
		t.MustAdd(randRowT(rng, nTO, poSize).TO, randRowT(rng, nTO, poSize).PO...)
	}
	return t
}

func randRowT(rng *rand.Rand, nTO, poSize int) TableRow {
	r := TableRow{TO: make([]int64, nTO)}
	for d := range r.TO {
		r.TO[d] = int64(rng.Intn(8))
	}
	r.PO = []string{fmt.Sprint(rng.Intn(poSize))}
	return r
}

// TestApplyBatchSemantics checks renumbering, the delta mapping, and
// input validation.
func TestApplyBatchSemantics(t *testing.T) {
	airline := NewOrder("a", "b", "c").Prefer("a", "b").Prefer("b", "c")
	tab := NewTable([]string{"price"}, airline)
	for i, v := range []string{"a", "b", "c", "a"} {
		tab.MustAdd([]int64{int64(10 * i)}, v)
	}

	next, delta, err := tab.ApplyBatch([]int{1, 1, 3}, []TableRow{{TO: []int64{99}, PO: []string{"c"}}})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 4 {
		t.Fatalf("receiver mutated: len %d", tab.Len())
	}
	if next.Len() != 3 {
		t.Fatalf("next len %d, want 3", next.Len())
	}
	if delta.OldLen != 4 || delta.NewLen != 3 || delta.Added != 1 {
		t.Fatalf("delta %+v", delta)
	}
	wantMap := []int32{0, -1, 1, -1}
	for i, w := range wantMap {
		if delta.OldToNew[i] != w {
			t.Fatalf("OldToNew[%d] = %d, want %d", i, delta.OldToNew[i], w)
		}
	}
	to, po := next.RowValues(2)
	if to[0] != 99 || po[0] != "c" {
		t.Fatalf("appended row reads %v %v", to, po)
	}

	if _, _, err := tab.ApplyBatch([]int{4}, nil); err == nil {
		t.Fatal("out-of-range remove accepted")
	}
	if _, _, err := tab.ApplyBatch(nil, []TableRow{{TO: []int64{1}, PO: []string{"zz"}}}); err == nil {
		t.Fatal("unknown PO label accepted")
	}
}

// TestApplyDeltaMatchesReprepare: across a chain of random batches the
// Dynamic ApplyDelta derives, a fresh PrepareDynamic of the new table,
// and the receiver over its own table all answer plain and ideal-point
// queries under random orders exactly like the naive oracle, and the
// derived Dynamic serves repeated queries from its carried-over cache.
func TestApplyDeltaMatchesReprepare(t *testing.T) {
	sameRows := func(rows []int, want []int32) bool {
		ids := make([]int, len(want))
		for i, id := range want {
			ids[i] = int(id)
		}
		return fmt.Sprint(sortedInts(rows)) == fmt.Sprint(sortedInts(ids))
	}
	ideal := []int64{3, 3}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := randTableT(rng, 30+rng.Intn(30), 2, 4).Seal()
		dyn := tab.PrepareDynamic()
		dyn.EnableCache(8)

		for batch := 0; batch < 5; batch++ {
			var removes []int
			for i := 0; i < tab.Len(); i++ {
				if rng.Intn(4) == 0 {
					removes = append(removes, i)
				}
			}
			var adds []TableRow
			for k := rng.Intn(5); k > 0; k-- {
				adds = append(adds, randRowT(rng, 2, 4))
			}
			next, delta, err := tab.ApplyBatch(removes, adds)
			if err != nil {
				t.Fatal(err)
			}
			next.Seal()
			nd := dyn.ApplyDelta(next, delta)
			full := next.PrepareDynamic()

			for q := 0; q < 3; q++ {
				order := randOrderT(rng, 4, 0.5)
				dom, err := order.compile()
				if err != nil {
					t.Fatal(err)
				}
				domains := []*poset.Domain{dom}
				for _, c := range []struct {
					dyn *Dynamic
					tab *Table
				}{{nd, next}, {full, next}, {dyn, tab}} {
					res, err := c.dyn.Query(order)
					if err != nil {
						t.Fatal(err)
					}
					if want := core.NaiveSkylineUnder(domains, c.tab.ds.Pts); !sameRows(res.Rows, want) {
						t.Fatalf("seed %d batch %d: Query = %v, naive %v", seed, batch, res.Rows, want)
					}
					if c.tab.Len() == 0 {
						continue
					}
					res, err = c.dyn.QueryAt(ideal, order)
					if err != nil {
						t.Fatal(err)
					}
					if want := core.FullyDynamicNaive(c.tab.ds, []int32{3, 3}, domains); !sameRows(res.Rows, want) {
						t.Fatalf("seed %d batch %d: QueryAt = %v, naive %v", seed, batch, res.Rows, want)
					}
				}
			}
			// The cache carried over its capacity: a repeat of the same
			// query hits.
			order := randOrderT(rng, 4, 0.5)
			if _, err := nd.Query(order); err != nil {
				t.Fatal(err)
			}
			res, err := nd.Query(order)
			if err != nil {
				t.Fatal(err)
			}
			if !res.CacheHit {
				t.Fatalf("seed %d batch %d: repeated query missed the carried-over cache", seed, batch)
			}
			tab, dyn = next, nd
		}
	}
}

func sortedInts(xs []int) []int {
	out := append([]int(nil), xs...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// TestCloneSealRaceRegression is the regression test for seal-state
// propagation: sealing a cloned-then-mutated table must be safe while
// the original — sharing the same compiled domains — is answering
// queries. Before Domain.EnableDyadic published the dyadic index
// atomically, this raced under -race.
func TestCloneSealRaceRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tab := randTableT(rng, 60, 2, 6) // deliberately NOT sealed
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Queries lazily build the dyadic index (on unless NoDyadic).
				if got := tab.Skyline(); len(got) == 0 {
					t.Error("empty skyline")
					return
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		next, delta, err := tab.ApplyBatch([]int{i % tab.Len()}, []TableRow{randRowT(rng, 2, 6)})
		if err != nil {
			t.Fatal(err)
		}
		next.Seal() // shares domains with tab: must not race its queries
		_ = delta
	}
	close(stop)
	wg.Wait()
}

// TestResidentIndexNotInherited: the scan order belongs to one row set.
// ApplyBatch, Clone and Filter renumber or fork the rows, so the tables
// they derive start without it and answer from an order of their own
// rows — never the parent's, whose order stays put.
func TestResidentIndexNotInherited(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	parent := randTableT(rng, 300, 2, 6).Seal()
	parentRows, _ := freshSequence(parent)
	if rows, _, _ := streamRows(t, parent, plan.Query{}); !equalRows(rows, parentRows) {
		t.Fatalf("parent stream %v, want %v", rows, parentRows)
	}
	ix := parent.order.Load()
	if ix == nil {
		t.Fatal("parent stream left no order")
	}

	// Dropping the first skyline member renumbers every later row and
	// promotes rows only it dominated.
	batch, _, err := parent.ApplyBatch([]int{parentRows[0]}, []TableRow{randRowT(rng, 2, 6)})
	if err != nil {
		t.Fatal(err)
	}
	clone := parent.Clone()
	clone.MustAdd([]int64{0, 0}, "0")
	filtered := parent.Filter(func(row int) bool { return row%3 != 0 })
	for name, derived := range map[string]*Table{"ApplyBatch": batch, "Clone+Add": clone, "Filter": filtered} {
		if derived.order.Load() != nil {
			t.Fatalf("%s inherited the parent's order", name)
		}
		want, _ := freshSequence(derived)
		rows, ex, _ := streamRows(t, derived, plan.Query{})
		if ex.CursorIndex != "built" || !equalRows(rows, want) {
			t.Fatalf("%s: cursorIndex %q, rows %v, want built %v", name, ex.CursorIndex, rows, want)
		}
		if derived.order.Load() == ix {
			t.Fatalf("%s shares the parent's order", name)
		}
	}
	if parent.order.Load() != ix {
		t.Fatal("deriving tables disturbed the parent's order")
	}
	if rows, ex, _ := streamRows(t, parent, plan.Query{}); ex.CursorIndex != "resident" || !equalRows(rows, parentRows) {
		t.Fatalf("parent after deriving: cursorIndex %q, rows %v, want resident %v", ex.CursorIndex, rows, parentRows)
	}
}
