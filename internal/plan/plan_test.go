package plan

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/oracle"
	"repro/internal/poset"
)

// chainDomain builds the total order v0 → v1 → … → v(n-1).
func chainDomain(t testing.TB, n int) *poset.Domain {
	t.Helper()
	dag := poset.NewDAG(n)
	for i := 0; i+1 < n; i++ {
		dag.MustEdge(i, i+1)
	}
	dom, err := poset.NewDomain(dag)
	if err != nil {
		t.Fatal(err)
	}
	return dom
}

// diamondDomain builds 0 → {1, 2} → 3 (1 and 2 incomparable).
func diamondDomain(t testing.TB) *poset.Domain {
	t.Helper()
	dag := poset.NewDAG(4)
	dag.MustEdge(0, 1)
	dag.MustEdge(0, 2)
	dag.MustEdge(1, 3)
	dag.MustEdge(2, 3)
	dom, err := poset.NewDomain(dag)
	if err != nil {
		t.Fatal(err)
	}
	return dom
}

// sampleDS builds a deterministic mixed TO/PO dataset with table layout
// (ID == index): 2 TO columns plus one diamond PO column.
func sampleDS(t testing.TB, n int) *core.Dataset {
	t.Helper()
	ds := &core.Dataset{Domains: []*poset.Domain{diamondDomain(t)}}
	for i := 0; i < n; i++ {
		ds.Pts = append(ds.Pts, core.Point{
			ID: int32(i),
			TO: []int32{int32((i * 7) % 50), int32((i*13 + 3) % 50)},
			PO: []int32{int32(i % 4)},
		})
	}
	return ds
}

func sorted32(ids []int32) []int32 { return slices.Sorted(slices.Values(ids)) }

func equal32(a, b []int32) bool { return slices.Equal(a, b) }

// memCache is a test Cache.
type memCache struct {
	mu   sync.Mutex
	full []int32
	sub  map[string][]int32
}

func (c *memCache) GetFull() ([]int32, bool, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.full, false, c.full != nil
}

func (c *memCache) PutFull(ids []int32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.full = ids
}

func (c *memCache) GetSubspace(key string) ([]int32, bool, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids, ok := c.sub[key]
	return ids, false, ok
}

func (c *memCache) PutSubspace(key string, ids []int32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sub == nil {
		c.sub = make(map[string][]int32)
	}
	c.sub[key] = ids
}

// runPlan plans and runs q, returning the result ids and the explain.
func runPlan(t *testing.T, ds *core.Dataset, q Query, env Env) ([]int32, Explain) {
	t.Helper()
	p, err := New(ds, q, env)
	if err != nil {
		t.Fatalf("New(%+v): %v", q, err)
	}
	res, err := p.Run(context.Background(), ds, env)
	if err != nil {
		t.Fatalf("Run(%+v): %v", q, err)
	}
	return res.SkylineIDs, p.Explain
}

// queryBattery is the shared set of logical queries the agreement tests
// sweep.
func queryBattery() []Query {
	hi := func(v int64) Predicate { return Predicate{Kind: TORange, Dim: 0, HasHi: true, Hi: v} }
	lo := func(v int64) Predicate { return Predicate{Kind: TORange, Dim: 1, HasLo: true, Lo: v} }
	return []Query{
		{},
		{Subspace: &Subspace{TO: []int{0}, PO: []int{0}}},
		{Subspace: &Subspace{TO: []int{0, 1}}},
		{Subspace: &Subspace{TO: []int{1}}},
		{Where: []Predicate{hi(20)}},
		{Where: []Predicate{lo(10)}},
		{Where: []Predicate{hi(30), lo(5)}},
		{Where: []Predicate{{Kind: POIn, Dim: 0, In: []int32{0, 1}}}},
		{Where: []Predicate{{Kind: POIn, Dim: 0, In: []int32{1, 3}}}},
		{TopK: 5, Rank: RankDomCount},
		{TopK: 3, Rank: RankIdeal, Ideal: []int64{10, 10}},
		{TopK: 4, Rank: RankIdeal},
		{Where: []Predicate{hi(25)}, TopK: 3, Rank: RankDomCount},
		{Subspace: &Subspace{TO: []int{0}, PO: []int{0}}, Where: []Predicate{hi(40)}, TopK: 2, Rank: RankIdeal},
	}
}

// TestPlansAgreeWithOracle sweeps the query battery through the auto
// planner and through every registered algorithm forced, checking each
// against the brute-force oracle.
func TestPlansAgreeWithOracle(t *testing.T) {
	ds := sampleDS(t, 200)
	for qi, q := range queryBattery() {
		want, err := Naive(ds, q)
		if err != nil {
			t.Fatalf("query %d: oracle: %v", qi, err)
		}
		algos := []string{""}
		for _, a := range core.Algorithms() {
			algos = append(algos, a.Name())
		}
		for _, algo := range algos {
			fq := q
			fq.Hints.Algorithm = algo
			p, err := New(ds, fq, Env{})
			if err != nil {
				t.Fatalf("query %d algo %q: New: %v", qi, algo, err)
			}
			res, err := p.Run(context.Background(), ds, Env{})
			if err != nil {
				t.Fatalf("query %d algo %q: Run: %v", qi, algo, err)
			}
			if !equal32(sorted32(res.SkylineIDs), sorted32(want)) {
				t.Fatalf("query %d (%s) algo %q: got %v want %v",
					qi, q.Variant(), algo, sorted32(res.SkylineIDs), sorted32(want))
			}
		}
	}
}

// TestRankedTopKExactOrder pins the ranked result order, not just the
// set: scores then row id break ties totally.
func TestRankedTopKExactOrder(t *testing.T) {
	ds := sampleDS(t, 120)
	for _, q := range []Query{
		{TopK: 6, Rank: RankDomCount},
		{TopK: 6, Rank: RankIdeal, Ideal: []int64{25, 25}},
	} {
		want, err := Naive(ds, q)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := runPlan(t, ds, q, Env{})
		if !equal32(got, want) {
			t.Fatalf("rank %q: got order %v want %v", q.Rank, got, want)
		}
	}
}

// TestUnrankedTopK checks the emission-order contract: K results, all
// members of the full skyline, served by the cursor route.
func TestUnrankedTopK(t *testing.T) {
	ds := sampleDS(t, 200)
	full, err := Naive(ds, Query{})
	if err != nil {
		t.Fatal(err)
	}
	member := make(map[int32]bool, len(full))
	for _, id := range full {
		member[id] = true
	}
	k := 3
	ids, ex := runPlan(t, ds, Query{TopK: k}, Env{})
	if ex.Route != RouteCursor {
		t.Fatalf("route %q, want %q", ex.Route, RouteCursor)
	}
	wantLen := k
	if len(full) < k {
		wantLen = len(full)
	}
	if len(ids) != wantLen {
		t.Fatalf("got %d rows, want %d", len(ids), wantLen)
	}
	for _, id := range ids {
		if !member[id] {
			t.Fatalf("row %d not in the full skyline %v", id, full)
		}
	}
}

func TestAntiMonotoneProof(t *testing.T) {
	ds := sampleDS(t, 10)
	cases := []struct {
		name string
		pred Predicate
		want bool
	}{
		{"upper bound", Predicate{Kind: TORange, Dim: 0, HasHi: true, Hi: 5}, true},
		{"lower bound", Predicate{Kind: TORange, Dim: 0, HasLo: true, Lo: 5}, false},
		{"both bounds", Predicate{Kind: TORange, Dim: 0, HasLo: true, Lo: 1, HasHi: true, Hi: 5}, false},
		// Diamond 0→{1,2}→3: {0,1} is upward closed, {1,3} is not (0 and
		// 2 are preferred to members but excluded).
		{"PO up-set", Predicate{Kind: POIn, Dim: 0, In: []int32{0, 1}}, true},
		{"PO top only", Predicate{Kind: POIn, Dim: 0, In: []int32{0}}, true},
		{"PO not up-set", Predicate{Kind: POIn, Dim: 0, In: []int32{1, 3}}, false},
	}
	for _, tc := range cases {
		got, reason := allAntiMonotone(ds, Query{Where: []Predicate{tc.pred}})
		if got != tc.want {
			t.Errorf("%s: antiMonotone=%v (reason %q), want %v", tc.name, got, reason, tc.want)
		}
	}
}

// TestCacheRouting drives the cache life cycle: a full-skyline run
// populates it, an anti-monotone constrained query is then served
// post-filter from the cache, and a non-anti-monotone one still pushes
// down.
func TestCacheRouting(t *testing.T) {
	ds := sampleDS(t, 150)
	cache := &memCache{}
	env := Env{Cache: cache}

	full, ex := runPlan(t, ds, Query{}, env)
	if ex.CacheHit {
		t.Fatal("first full run reported a cache hit")
	}
	if _, _, ok := cache.GetFull(); !ok {
		t.Fatal("full run did not populate the cache")
	}

	ids2, ex2 := runPlan(t, ds, Query{}, env)
	if !ex2.CacheHit {
		t.Fatal("second full run missed the cache")
	}
	if !equal32(sorted32(ids2), sorted32(full)) {
		t.Fatal("cached full skyline differs")
	}

	am := Query{Where: []Predicate{{Kind: TORange, Dim: 0, HasHi: true, Hi: 20}}}
	want, err := Naive(ds, am)
	if err != nil {
		t.Fatal(err)
	}
	ids3, ex3 := runPlan(t, ds, am, env)
	if ex3.Route != RoutePostFilter || !ex3.CacheHit {
		t.Fatalf("anti-monotone query with warm cache: route %q cacheHit %v", ex3.Route, ex3.CacheHit)
	}
	if !equal32(sorted32(ids3), sorted32(want)) {
		t.Fatalf("post-filter answer differs from oracle: got %v want %v", sorted32(ids3), sorted32(want))
	}

	nonAM := Query{Where: []Predicate{{Kind: TORange, Dim: 0, HasLo: true, Lo: 10}}}
	_, ex4 := runPlan(t, ds, nonAM, env)
	if ex4.Route != RoutePushdown || ex4.CacheHit {
		t.Fatalf("non-anti-monotone query: route %q cacheHit %v, want pushdown cold", ex4.Route, ex4.CacheHit)
	}

	// NoCache must bypass a warm cache.
	_, ex5 := runPlan(t, ds, Query{Hints: Hints{NoCache: true}}, env)
	if ex5.CacheHit {
		t.Fatal("NoCache hint still hit the cache")
	}
}

func TestForcedPostFilterNeedsProof(t *testing.T) {
	ds := sampleDS(t, 20)
	q := Query{
		Where: []Predicate{{Kind: TORange, Dim: 0, HasLo: true, Lo: 5}},
		Hints: Hints{Route: RoutePostFilter},
	}
	if _, err := New(ds, q, Env{}); err == nil {
		t.Fatal("forced post-filter on a non-anti-monotone predicate planned without error")
	}
	// Provably anti-monotone but projected: the blocker is the
	// subspace, and the error must say so.
	sq := Query{
		Where:    []Predicate{{Kind: TORange, Dim: 0, HasHi: true, Hi: 5}},
		Subspace: &Subspace{TO: []int{0}},
		Hints:    Hints{Route: RoutePostFilter},
	}
	_, err := New(ds, sq, Env{})
	if err == nil {
		t.Fatal("forced post-filter on a subspace query planned without error")
	}
	if !strings.Contains(err.Error(), "subspace") {
		t.Fatalf("subspace post-filter error does not name the blocker: %v", err)
	}
}

// TestForcedParallelTopKSkipsCursor: a forced shard count must be
// honored, so unranked top-k falls back to a full truncated run instead
// of the sequential cursor.
func TestForcedParallelTopKSkipsCursor(t *testing.T) {
	ds := sampleDS(t, 200)
	ids, ex := runPlan(t, ds, Query{TopK: 3, Hints: Hints{Parallelism: 2}}, Env{})
	if ex.Route == RouteCursor {
		t.Fatal("forced parallelism still took the sequential cursor route")
	}
	if ex.Parallelism != 2 || len(ids) != 3 {
		t.Fatalf("parallelism %d rows %d", ex.Parallelism, len(ids))
	}
}

// TestRankedTopKEmissionsMatchResult: after a ranked truncation the
// metrics' emission records describe exactly the returned rows.
func TestRankedTopKEmissionsMatchResult(t *testing.T) {
	ds := sampleDS(t, 120)
	p, err := New(ds, Query{TopK: 4, Rank: RankDomCount}, Env{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background(), ds, Env{})
	if err != nil {
		t.Fatal(err)
	}
	kept := make(map[int32]bool, len(res.SkylineIDs))
	for _, id := range res.SkylineIDs {
		kept[id] = true
	}
	if len(res.Metrics.Emissions) != len(res.SkylineIDs) {
		t.Fatalf("%d emissions for %d result rows", len(res.Metrics.Emissions), len(res.SkylineIDs))
	}
	for _, e := range res.Metrics.Emissions {
		if !kept[e.ID] {
			t.Fatalf("emission for row %d, which is not in the result %v", e.ID, res.SkylineIDs)
		}
	}
}

// TestStatsAdvanceFromEmptyTable: stats cached on an empty table must
// not leak their zeroed bounds into the first real batch.
func TestStatsAdvanceFromEmptyTable(t *testing.T) {
	empty := &core.Dataset{Domains: []*poset.Domain{diamondDomain(t)}}
	s := Analyze(empty)
	next := &core.Dataset{Domains: empty.Domains, Pts: []core.Point{
		{ID: 0, TO: []int32{100, 200}, PO: []int32{0}},
		{ID: 1, TO: []int32{150, 250}, PO: []int32{1}},
	}}
	s2 := s.Advance(empty, next, nil, 2)
	if s2.TO[0].Min != 100 || s2.TO[0].Max != 150 {
		t.Fatalf("bounds after first batch: %+v (zeroed Min leaked?)", s2.TO[0])
	}
}

func TestValidateRejects(t *testing.T) {
	ds := sampleDS(t, 10)
	bad := []Query{
		{TopK: -1},
		{Rank: RankDomCount}, // rank without TopK
		{TopK: 1, Rank: RankDomCount, Ideal: []int64{1, 2}},        // ideal with a rank that does not consume it
		{Ideal: []int64{1, -2}},                                    // ideal transform out of range
		{TopK: 1, Rank: RankIdeal, Ideal: []int64{1}},              // ideal arity
		{Subspace: &Subspace{TO: []int{}}},                         // no TO dim kept
		{Subspace: &Subspace{TO: []int{1, 0}}},                     // not ascending
		{Subspace: &Subspace{TO: []int{0, 0}}},                     // duplicate
		{Subspace: &Subspace{TO: []int{2}}},                        // out of range
		{Where: []Predicate{{Kind: TORange, Dim: 5}}},              // bad dim
		{Where: []Predicate{{Kind: TORange, Dim: 0}}},              // no bounds
		{Where: []Predicate{{Kind: POIn, Dim: 0}}},                 // empty set
		{Where: []Predicate{{Kind: POIn, Dim: 0, In: []int32{9}}}}, // bad value
		{Hints: Hints{Route: RouteCursor}},                         // not forceable
		{Where: []Predicate{{Kind: TORange, Dim: 0, HasHi: true}}, Hints: Hints{Route: "bogus"}},
	}
	for i, q := range bad {
		if _, err := New(ds, q, Env{}); err == nil {
			t.Errorf("query %d (%+v): expected a validation error", i, q)
		}
	}
}

func TestStatsAnalyzeAndAdvance(t *testing.T) {
	ds := sampleDS(t, 100)
	s := Analyze(ds)
	if s.Rows != 100 || len(s.TO) != 2 {
		t.Fatalf("bad shape: %+v", s)
	}
	wantMin, wantMax := int64(math.MaxInt64), int64(math.MinInt64)
	for i := range ds.Pts {
		v := int64(ds.Pts[i].TO[0])
		if v < wantMin {
			wantMin = v
		}
		if v > wantMax {
			wantMax = v
		}
	}
	if s.TO[0].Min != wantMin || s.TO[0].Max != wantMax {
		t.Fatalf("TO[0] bounds [%d, %d], want [%d, %d]", s.TO[0].Min, s.TO[0].Max, wantMin, wantMax)
	}

	// Incremental append widens the max.
	next := &core.Dataset{Domains: ds.Domains, Pts: append(append([]core.Point(nil), ds.Pts...),
		core.Point{ID: 100, TO: []int32{999, 1}, PO: []int32{0}})}
	oldToNew := make([]int32, 100)
	for i := range oldToNew {
		oldToNew[i] = int32(i)
	}
	s2 := s.Advance(ds, next, oldToNew, 1)
	if s2.Rows != 101 || s2.TO[0].Max != 999 {
		t.Fatalf("advance add: %+v", s2.TO[0])
	}
	if s.TO[0].Max == 999 {
		t.Fatal("Advance mutated the receiver")
	}

	// Removing the extreme row must trigger a recompute that restores
	// the true bounds.
	var maxRow int
	for i := range next.Pts {
		if next.Pts[i].TO[0] == 999 {
			maxRow = i
		}
	}
	after := &core.Dataset{Domains: ds.Domains}
	o2n := make([]int32, len(next.Pts))
	for i := range next.Pts {
		if i == maxRow {
			o2n[i] = -1
			continue
		}
		p := next.Pts[i]
		p.ID = int32(len(after.Pts))
		o2n[i] = p.ID
		after.Pts = append(after.Pts, p)
	}
	s3 := s2.Advance(next, after, o2n, 0)
	if s3.TO[0].Max != wantMax {
		t.Fatalf("advance remove-extreme: max %d, want %d", s3.TO[0].Max, wantMax)
	}
}

// TestSubspaceDropsPOEnablesTOOnly: projecting away the PO column
// gives SFS a TO-only dataset, so its presort runs the elimination
// filter, which drops rows before the sort and keeps the answer exact.
func TestSubspaceDropsPOEnablesTOOnly(t *testing.T) {
	ds := sampleDS(t, 50)
	q := Query{Subspace: &Subspace{TO: []int{0, 1}}}
	want, err := Naive(ds, q)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(ds, q, Env{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background(), ds, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Explain.Algorithm != "sfs" || p.Explain.CursorIndex != "built" {
		t.Fatalf("algorithm %q, cursorIndex %q", p.Explain.Algorithm, p.Explain.CursorIndex)
	}
	if res.Metrics.PointsPruned == 0 {
		t.Error("elimination filter pruned nothing on the TO subspace")
	}
	if got := res.SkylineIDs; !equal32(sorted32(got), sorted32(want)) {
		t.Fatalf("sfs on TO subspace: got %v want %v", sorted32(got), sorted32(want))
	}
}

func TestContextCancellation(t *testing.T) {
	ds := sampleDS(t, 100)
	p, err := New(ds, Query{}, Env{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Run(ctx, ds, Env{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v", err)
	}
}

func TestNormalizeDims(t *testing.T) {
	got := NormalizeDims([]int{3, 1, 3, 0, 1})
	want := []int{0, 1, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

// TestSubspaceCacheRouting proves the memo's subspace half: a repeat
// subspace query on the same snapshot is a cache hit keyed by its
// kept-dimension set, distinct subspaces do not collide, and the
// explain reports the route.
func TestSubspaceCacheRouting(t *testing.T) {
	ds := sampleDS(t, 150)
	env := Env{Cache: NewMemoCache()}
	subA := Query{Subspace: &Subspace{TO: []int{0}, PO: []int{0}}}
	subB := Query{Subspace: &Subspace{TO: []int{1}}}

	idsA, exA := runPlan(t, ds, subA, env)
	if exA.CacheHit {
		t.Fatal("cold subspace run reported a cache hit")
	}
	idsA2, exA2 := runPlan(t, ds, subA, env)
	if !exA2.CacheHit {
		t.Fatal("repeat subspace query missed the memo")
	}
	if !strings.Contains(exA2.RouteReason, "subspace skyline cached") {
		t.Fatalf("explain does not report the subspace cache route: %q", exA2.RouteReason)
	}
	if !equal32(sorted32(idsA), sorted32(idsA2)) {
		t.Fatalf("cached subspace result diverges: %v vs %v", idsA, idsA2)
	}
	// A different kept-dimension set must not be served from A's entry.
	idsB, exB := runPlan(t, ds, subB, env)
	if exB.CacheHit {
		t.Fatal("distinct subspace served from the wrong memo entry")
	}
	want, err := Naive(ds, subB)
	if err != nil {
		t.Fatal(err)
	}
	if !equal32(sorted32(idsB), sorted32(want)) {
		t.Fatalf("subspace B result wrong: %v want %v", idsB, want)
	}
	// The full-skyline half stays independent of subspace entries.
	if _, _, ok := env.Cache.GetFull(); ok {
		t.Fatal("subspace runs must not populate the full-skyline memo")
	}
	if _, ex := runPlan(t, ds, Query{}, env); ex.CacheHit {
		t.Fatal("full query served from a subspace entry")
	}
	if _, ex := runPlan(t, ds, Query{}, env); !ex.CacheHit {
		t.Fatal("repeat full query missed the memo")
	}
}

// TestParallelismFromObservedRows: the executor partitions by the rows
// the algorithm actually gets, not by a guess. The fixture has twice
// parallelMinRows rows, but TO₀ ≤ 50 keeps only 100 of them: a uniform
// estimate over TO₀'s [0, 99] range would read 51 % of the table and
// partition. The push-down run is sequential, the unfiltered run is
// partitioned, and a forced Hints.Parallelism wins either way.
func TestParallelismFromObservedRows(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	ds := &core.Dataset{Domains: []*poset.Domain{diamondDomain(t)}}
	for i := 0; i < 2*parallelMinRows; i++ {
		to0 := int32(51 + i%49) // 51..99
		if i < 100 {
			to0 = int32(i % 50)
		}
		ds.Pts = append(ds.Pts, core.Point{ID: int32(i), TO: []int32{to0, int32((i*13 + 3) % 50)}, PO: []int32{int32(i % 4)}})
	}
	pushdown := []Predicate{{Kind: TORange, Dim: 0, HasHi: true, Hi: 50}}
	for _, tc := range []struct {
		name     string
		q        Query
		rows     int
		parallel int
	}{
		{"push-down", Query{Where: pushdown}, 100, 0},
		{"unfiltered", Query{}, 2 * parallelMinRows, 2},
		{"push-down, forced", Query{Where: pushdown, Hints: Hints{Parallelism: 3}}, 100, 3},
		{"unfiltered, forced sequential", Query{Hints: Hints{Parallelism: -1}}, 2 * parallelMinRows, 0},
	} {
		ids, ex := runPlan(t, ds, tc.q, Env{})
		if ex.ObservedRows != tc.rows || ex.Parallelism != tc.parallel {
			t.Errorf("%s: %d rows at parallelism %d, want %d at %d", tc.name, ex.ObservedRows, ex.Parallelism, tc.rows, tc.parallel)
		}
		seq := tc.q
		seq.Hints.Parallelism = -1
		if want, _ := runPlan(t, ds, seq, Env{}); !equal32(sorted32(ids), sorted32(want)) {
			t.Errorf("%s: skyline differs from the sequential run's", tc.name)
		}
	}
}

// TestMergeStats checks the coordinator-side union of per-shard
// statistics: summed rows, unioned bounds, and zero-row parts skipped.
func TestMergeStats(t *testing.T) {
	a := &Stats{Rows: 100, TO: []ColStats{{Min: 5, Max: 40}}}
	b := &Stats{Rows: 300, TO: []ColStats{{Min: 0, Max: 25}}}
	empty := &Stats{TO: []ColStats{}}
	got := MergeStats(a, empty, nil, b)
	if got.Rows != 400 {
		t.Fatalf("rows %d, want 400", got.Rows)
	}
	if got.TO[0].Min != 0 || got.TO[0].Max != 40 {
		t.Fatalf("TO bounds %+v", got.TO[0])
	}
	if MergeStats(nil, empty) != nil {
		t.Fatal("merge of empty parts must be nil")
	}
	// Shape mismatch is an error signalled by nil, not a panic.
	if MergeStats(a, &Stats{Rows: 1, TO: []ColStats{{}, {}}}) != nil {
		t.Fatal("shape mismatch must yield nil")
	}
}

// TestDomCounts cross-checks the shard-side scoring primitives against
// a scalar oracle: scoring the full skyline by value must reproduce, per
// member, the dominance count the planner ranks by id and the dp-idp
// histogram of its dominated rows keyed by their dominator count.
func TestDomCounts(t *testing.T) {
	ds := sampleDS(t, 150)
	for _, q := range []Query{
		{},
		{Subspace: &Subspace{TO: []int{0}, PO: []int{0}}},
		{Where: []Predicate{{Kind: TORange, Dim: 0, HasHi: true, Hi: 30}}},
	} {
		sky, err := Naive(ds, q)
		if err != nil {
			t.Fatal(err)
		}
		cands := make([]core.Point, len(sky))
		for i, id := range sky {
			cands[i] = ds.Pts[id]
		}
		counts, err := DomCounts(context.Background(), ds, q, cands)
		if err != nil {
			t.Fatal(err)
		}
		parts, err := RankPartials(context.Background(), ds, q, "dpidp", cands)
		if err != nil {
			t.Fatal(err)
		}
		// Oracle: per row of R, the skyline members dominating it.
		keptTO, keptPO := resolveSubspace(q.Subspace, ds.NumTO(), ds.NumPO())
		doms := keptPODomains(ds, keptPO)
		wantCounts := make([]int64, len(sky))
		wantHists := make([]map[int32]int64, len(sky))
		cps := make([]core.Point, len(sky))
		for i, id := range sky {
			cps[i] = projectInto(&ds.Pts[id], keptTO, keptPO)
		}
		for r := range ds.Pts {
			row := &ds.Pts[r]
			if len(q.Where) > 0 && !matchesAllPreds(q.Where, row) {
				continue
			}
			rp := projectInto(row, keptTO, keptPO)
			var by []int
			for i := range cps {
				if core.DominatesUnder(doms, &cps[i], &rp) {
					by = append(by, i)
				}
			}
			for _, i := range by {
				wantCounts[i]++
				if wantHists[i] == nil {
					wantHists[i] = map[int32]int64{}
				}
				wantHists[i][int32(len(by))]++
			}
		}
		for i, id := range sky {
			if counts[i] != wantCounts[i] {
				t.Fatalf("query %+v: candidate %d count %d, want %d", q, id, counts[i], wantCounts[i])
			}
			if got, want := parts.Hists[i], histToWire(wantHists[i]); !reflect.DeepEqual(got, want) {
				t.Fatalf("query %+v: candidate %d dp-idp histogram %+v, want %+v", q, id, got, want)
			}
		}
	}
	// Dimension mismatch is rejected.
	if _, err := DomCounts(context.Background(), ds, Query{}, []core.Point{{TO: []int32{1}}}); err == nil {
		t.Fatal("mis-dimensioned candidate accepted")
	}
}

// TestPartialsSplitAgreement: dp-idp partials are additive across any
// split of the rows. Each query's skyline is scored as the coordinator
// scores it: the table's rows are split at random into 1–4 shards,
// and CombinePartials over the shards' Partials must equal the whole
// table's Partials run for run, with scores == to DPIDPScoreFromHist
// over a scalar oracle's map histograms.
func TestPartialsSplitAgreement(t *testing.T) {
	cfg := exp.StaticDefaults(1)
	cfg.N = 600
	ds := exp.BuildDataset(cfg)
	rng := rand.New(rand.NewPCG(1, 33))
	// The request's orders invert the table's: every edge turned around.
	orders := make([]*poset.Domain, ds.NumPO())
	for d, dom := range ds.Domains {
		rev := poset.NewDAG(dom.Size())
		for v := range dom.Size() {
			for _, w := range dom.DAG().Out(v) {
				rev.MustEdge(int(w), v)
			}
		}
		orders[d] = poset.MustDomain(rev)
	}
	sub := &Subspace{TO: []int{1}, PO: []int{0}}
	where := []Predicate{{Kind: TORange, Dim: 0, HasHi: true, Hi: int64(cfg.TODomain / 2)}}
	for _, q := range []Query{
		{},
		{Orders: orders},
		{Subspace: sub},
		{Where: where},
		{Orders: orders, Subspace: sub, Where: where},
	} {
		sky, err := Naive(ds, q)
		if err != nil {
			t.Fatal(err)
		}
		cands := memberPoints(ds, sky)
		whole, err := RankPartials(context.Background(), ds, q, "dpidp", cands)
		if err != nil {
			t.Fatal(err)
		}
		oracle := oracleHists(ds, q, cands)
		for i, h := range oracle {
			if want := histToWire(h); !reflect.DeepEqual(whole.Hists[i], want) {
				t.Fatalf("query %+v: candidate %d whole-table runs %+v, oracle %+v", q, i, whole.Hists[i], want)
			}
		}
		for trial := range 4 {
			parts := 1 + trial%4
			shards := make([]*core.Dataset, parts)
			for s := range shards {
				shards[s] = &core.Dataset{Domains: ds.Domains}
			}
			for i := range ds.Pts {
				s := i % parts // every shard gets a row; the rest land at random
				if i >= parts {
					s = rng.IntN(parts)
				}
				pt := ds.Pts[i]
				pt.ID = int32(len(shards[s].Pts))
				shards[s].Pts = append(shards[s].Pts, pt)
			}
			partials := make([]Partials, parts)
			for s, shard := range shards {
				if partials[s], err = RankPartials(context.Background(), shard, q, "dpidp", cands); err != nil {
					t.Fatal(err)
				}
			}
			merged, scores, err := dpidpRanker{}.CombinePartials(partials, len(cands))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(merged, whole) {
				t.Fatalf("query %+v, %d shards: combined runs differ from the whole table's", q, parts)
			}
			for i, h := range oracle {
				if want := -core.DPIDPScoreFromHist(h); scores[i] != want {
					t.Fatalf("query %+v, %d shards: candidate %d score %v, oracle %v", q, parts, i, scores[i], want)
				}
			}
		}
	}
}

// oracleHists is the scalar dp-idp oracle: per candidate, the map
// histogram of the rows of R it dominates, keyed by how many
// candidates dominate each row, under q's orders and kept dimensions.
func oracleHists(ds *core.Dataset, q Query, cands []core.Point) []map[int32]int64 {
	if q.Orders != nil {
		ds = &core.Dataset{Domains: q.Orders, Pts: ds.Pts}
	}
	keptTO, keptPO := resolveSubspace(q.Subspace, ds.NumTO(), ds.NumPO())
	cps := make([]core.Point, len(cands))
	for i := range cands {
		cps[i] = projectInto(&cands[i], keptTO, keptPO)
	}
	var rows []core.Point
	for r := range ds.Pts {
		if matchesAllPreds(q.Where, &ds.Pts[r]) {
			rows = append(rows, projectInto(&ds.Pts[r], keptTO, keptPO))
		}
	}
	return oracle.DPIDPHists(keptPODomains(ds, keptPO), cps, rows)
}

// histToWire flattens a k-histogram into ascending-k parallel arrays.
func histToWire(h map[int32]int64) KHist {
	if len(h) == 0 {
		return KHist{}
	}
	ks := make([]int32, 0, len(h))
	for k := range h {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	out := KHist{Ks: ks, Counts: make([]int64, len(ks))}
	for i, k := range ks {
		out.Counts[i] = h[k]
	}
	return out
}
