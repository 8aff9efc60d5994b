package plan

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

// mutateDS applies removes+adds to ds the way Table.ApplyBatch does
// (drop, renumber survivors in order, append adds) and returns the new
// dataset plus the delta.
func mutateDS(ds *core.Dataset, removes []int, adds []core.Point) (*core.Dataset, *core.Delta) {
	drop := make([]bool, len(ds.Pts))
	for _, r := range removes {
		drop[r] = true
	}
	delta := &core.Delta{OldToNew: make([]int32, len(ds.Pts)), Added: len(adds)}
	nds := &core.Dataset{Domains: ds.Domains}
	for i := range ds.Pts {
		if drop[i] {
			delta.OldToNew[i] = -1
			continue
		}
		p := ds.Pts[i]
		p.ID = int32(len(nds.Pts))
		delta.OldToNew[i] = p.ID
		nds.Pts = append(nds.Pts, p)
	}
	for _, p := range adds {
		p.ID = int32(len(nds.Pts))
		nds.Pts = append(nds.Pts, p)
	}
	return nds, delta
}

// TestMemoAdvance: a memo populated by cold runs is carried across a
// mutation; the advanced entries are flagged maintained, answer queries
// identically to a cold recompute, and the planner reports the
// maintained route.
func TestMemoAdvance(t *testing.T) {
	ds := sampleDS(t, 150)
	cache := NewMemoCache()
	env := Env{Cache: cache, Learned: NewLearned()}

	runPlan(t, ds, Query{}, env) // populate full entry
	sub := &Subspace{TO: []int{0}, PO: []int{0}}
	runPlan(t, ds, Query{Subspace: sub}, env) // populate one subspace entry

	// Remove two skyline members (forces promotions) and add rows.
	full, _, ok := cache.GetFull()
	if !ok {
		t.Fatal("full entry missing after cold run")
	}
	removes := []int{int(full[0]), int(full[len(full)-1]), 17}
	adds := []core.Point{
		{TO: []int32{1, 1}, PO: []int32{0}},   // strong add: evicts members
		{TO: []int32{60, 60}, PO: []int32{3}}, // dominated add: discarded
	}
	nds, delta := mutateDS(ds, removes, adds)
	next := cache.Advance(ds, nds, delta)

	if _, maint, ok := next.GetFull(); !ok || !maint {
		t.Fatalf("advanced full entry: ok=%v maintained=%v, want hit+maintained", ok, maint)
	}
	if _, maint, ok := next.GetSubspace(SubspaceKey(sub)); !ok || !maint {
		t.Fatalf("advanced subspace entry: ok=%v maintained=%v, want hit+maintained", ok, maint)
	}

	nenv := Env{Cache: next, Learned: NewLearned()}
	gotFull, ex := runPlan(t, nds, Query{}, nenv)
	if !ex.CacheHit || !ex.Maintained {
		t.Fatalf("post-batch full query: cacheHit=%v maintained=%v", ex.CacheHit, ex.Maintained)
	}
	wantFull, err := Naive(nds, Query{Hints: Hints{NoCache: true}})
	if err != nil {
		t.Fatal(err)
	}
	if !equal32(sorted32(gotFull), sorted32(wantFull)) {
		t.Fatalf("maintained full skyline %v != cold %v", sorted32(gotFull), sorted32(wantFull))
	}

	gotSub, exs := runPlan(t, nds, Query{Subspace: sub}, nenv)
	if !exs.CacheHit || !exs.Maintained {
		t.Fatalf("post-batch subspace query: cacheHit=%v maintained=%v", exs.CacheHit, exs.Maintained)
	}
	wantSub, err := Naive(nds, Query{Subspace: sub})
	if err != nil {
		t.Fatal(err)
	}
	if !equal32(sorted32(gotSub), sorted32(wantSub)) {
		t.Fatalf("maintained subspace skyline %v != cold %v", sorted32(gotSub), sorted32(wantSub))
	}

	st := next.MaintStats()
	if st.Advances < 2 {
		t.Fatalf("MaintStats.Advances = %d, want >= 2 (full + subspace)", st.Advances)
	}
	// The old memo still serves the old snapshot, un-maintained.
	if _, maint, ok := cache.GetFull(); !ok || maint {
		t.Fatalf("old memo changed by Advance: ok=%v maintained=%v", ok, maint)
	}
}

// TestMemoAdvanceChurnFallback: a batch over the churn threshold drops
// the entries instead of maintaining them, and counts fallbacks.
func TestMemoAdvanceChurnFallback(t *testing.T) {
	ds := sampleDS(t, 1000)
	cache := NewMemoCache()
	env := Env{Cache: cache, Learned: NewLearned()}
	runPlan(t, ds, Query{}, env)

	removes := make([]int, 0, 200)
	for i := 0; i < 200; i++ { // 20% churn > threshold and > floor
		removes = append(removes, i)
	}
	nds, delta := mutateDS(ds, removes, nil)
	next := cache.Advance(ds, nds, delta)
	if _, _, ok := next.GetFull(); ok {
		t.Fatal("over-threshold batch should drop the full entry")
	}
	if st := next.MaintStats(); st.Fallbacks == 0 {
		t.Fatal("fallback not counted")
	}
	// The dropped entry refills cold on the next query.
	nenv := Env{Cache: next, Learned: NewLearned()}
	if _, ex := runPlan(t, nds, Query{}, nenv); ex.CacheHit {
		t.Fatal("dropped entry still reported a hit")
	}
	if _, ex := runPlan(t, nds, Query{}, nenv); !ex.CacheHit || ex.Maintained {
		t.Fatal("refilled entry should be a plain (non-maintained) hit")
	}
}

// TestMemoSubspaceLRU: the subspace half is bounded; overflow evicts
// the least-recently-used entry and counts it.
func TestMemoSubspaceLRU(t *testing.T) {
	cache := NewMemoCache()
	key := func(i int) string { return fmt.Sprintf("to:%d|po:", i) }
	for i := 0; i < DefaultSubspaceCap; i++ {
		cache.PutSubspace(key(i), []int32{int32(i)})
	}
	// Touch entry 0 so entry 1 is the LRU victim.
	if _, _, ok := cache.GetSubspace(key(0)); !ok {
		t.Fatal("entry 0 missing")
	}
	cache.PutSubspace(key(DefaultSubspaceCap), []int32{DefaultSubspaceCap})
	if _, _, ok := cache.GetSubspace(key(1)); ok {
		t.Fatal("LRU entry 1 survived overflow")
	}
	for i := 0; i <= DefaultSubspaceCap; i++ {
		if _, _, ok := cache.GetSubspace(key(i)); !ok && i != 1 {
			t.Fatalf("entry %q evicted wrongly", key(i))
		}
	}
	if st := cache.MaintStats(); st.SubspaceEvictions != 1 {
		t.Fatalf("SubspaceEvictions = %d, want 1", st.SubspaceEvictions)
	}
}

// TestParseSubspaceKey round-trips SubspaceKey.
func TestParseSubspaceKey(t *testing.T) {
	cases := []*Subspace{
		{TO: []int{0, 2}, PO: []int{1}},
		{TO: []int{1}, PO: []int{}},
		{TO: []int{}, PO: []int{0, 1}},
	}
	for _, s := range cases {
		key := SubspaceKey(s)
		to, po, err := parseSubspaceKey(key)
		if err != nil {
			t.Fatalf("parse(%q): %v", key, err)
		}
		if len(to) != len(s.TO) || len(po) != len(s.PO) {
			t.Fatalf("parse(%q) = %v/%v", key, to, po)
		}
		for i := range to {
			if to[i] != s.TO[i] {
				t.Fatalf("parse(%q) TO = %v", key, to)
			}
		}
		for i := range po {
			if po[i] != s.PO[i] {
				t.Fatalf("parse(%q) PO = %v", key, po)
			}
		}
	}
	for _, bad := range []string{"", "full", "to:1", "to:x|po:", "to:1|po:-2"} {
		if _, _, err := parseSubspaceKey(bad); err == nil {
			t.Fatalf("parse(%q) accepted", bad)
		}
	}
}
