package plan

import (
	"sort"
	"strings"
	"testing"
)

// TestRankerRegistry pins the ranking list's contract: the four
// built-in rankings are present, Validate accepts a name in any case
// and rewrites it to the canonical one, and an unknown name is
// rejected rather than panicking.
func TestRankerRegistry(t *testing.T) {
	names := RankerNames()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("RankerNames not sorted: %v", names)
	}
	for _, want := range []string{"domcount", "dpidp", "ideal", "layer"} {
		i := sort.SearchStrings(names, want)
		if i == len(names) || names[i] != want {
			t.Fatalf("RankerNames missing %q: %v", want, names)
		}
	}
	for _, name := range []string{"dpidp", "DPIDP", "DpIdp"} {
		q := Query{TopK: 1, Rank: Rank(name)}
		if err := q.Validate(1, 0, nil); err != nil {
			t.Fatalf("Validate(rank %q): %v", name, err)
		}
		if q.Rank != RankDPIDP {
			t.Fatalf("Validate(rank %q) left rank %q", name, q.Rank)
		}
	}
	q := Query{TopK: 1, Rank: "pagerank"}
	if err := q.Validate(1, 0, nil); err == nil || !strings.Contains(err.Error(), `unknown rank "pagerank"`) {
		t.Fatalf("Validate accepted an unknown rank (err %v)", err)
	}
}

// TestValidateRankAndFWeights pins the validation surface the new
// rankings added: every rejection names the offending field with
// enough context to fix the query.
func TestValidateRankAndFWeights(t *testing.T) {
	ds := sampleDS(t, 40) // 2 TO columns, 1 PO column
	sizes := make([]int, len(ds.Domains))
	for d, dom := range ds.Domains {
		sizes[d] = dom.Size()
	}
	cases := []struct {
		name string
		q    Query
		want string // substring of the error, "" = must validate
	}{
		{"dpidp ok", Query{TopK: 3, Rank: RankDPIDP}, ""},
		{"layer ok", Query{TopK: 2, Rank: RankLayer}, ""},
		{"fweights ok", Query{FWeights: []float64{0.25, 0.5}}, ""},
		{"fweights with unranked topk", Query{TopK: 2, FWeights: []float64{0.25, 0.5}}, ""},
		{"unknown rank", Query{TopK: 3, Rank: Rank("pagerank")}, `unknown rank "pagerank"`},
		{"rank without topk", Query{Rank: RankDPIDP}, `rank "dpidp" without TopK`},
		{"fweights with rank", Query{TopK: 3, Rank: RankLayer, FWeights: []float64{0.25, 0.5}},
			`fweights cannot combine with rank "layer"`},
		{"fweights arity", Query{FWeights: []float64{0.25}}, "fweights has 1 values, table has 2 TO columns"},
		{"fweights negative", Query{FWeights: []float64{-0.1, 0.5}}, "weights must be finite and >= 0"},
		{"fweights sum over 1", Query{FWeights: []float64{0.75, 0.75}}, "exceeds 1"},
		{"ideal point without ideal rank", Query{TopK: 3, Rank: RankDPIDP, Ideal: []int64{0, 0}},
			`ideal point without rank "ideal"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.q.Validate(ds.NumTO(), ds.NumPO(), sizes)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate(%+v) = %v, want ok", tc.q, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate(%+v) = %v, want error containing %q", tc.q, err, tc.want)
			}
		})
	}
}

// TestRankedFromTransitions pins the explain split this PR adds: the
// first index-eligible dp-idp query scores cold and seeds the index,
// the second reads it; a ranking without a partial-score index over a
// warm memo reports the memoised skyline as its source.
func TestRankedFromTransitions(t *testing.T) {
	ds := sampleDS(t, 60)
	env := Env{Cache: NewMemoCache()}

	q := Query{TopK: 3, Rank: RankDPIDP}
	first, ex1 := runPlan(t, ds, q, env)
	if ex1.RankedFrom != "cold" {
		t.Fatalf("first dp-idp run: RankedFrom = %q, want cold", ex1.RankedFrom)
	}
	second, ex2 := runPlan(t, ds, q, env)
	if ex2.RankedFrom != "index" {
		t.Fatalf("second dp-idp run: RankedFrom = %q, want index", ex2.RankedFrom)
	}
	if ex2.RouteReason != "ranked top-k scored from the score index" {
		t.Fatalf("second dp-idp run: RouteReason = %q", ex2.RouteReason)
	}
	if !equal32(first, second) {
		t.Fatalf("index-served top-k %v differs from cold %v", second, first)
	}

	// domcount has no score index; over the now-warm full-skyline memo
	// it reports the memo as its source.
	_, ex3 := runPlan(t, ds, Query{TopK: 3, Rank: RankDomCount}, env)
	if ex3.RankedFrom != "memo" {
		t.Fatalf("domcount over warm memo: RankedFrom = %q, want memo", ex3.RankedFrom)
	}
	if ex3.RouteReason != "ranked top-k over the memoised skyline" {
		t.Fatalf("domcount over warm memo: RouteReason = %q", ex3.RouteReason)
	}

	// Cold env: no cache at all, scores recomputed from the table.
	_, ex4 := runPlan(t, ds, Query{TopK: 3, Rank: RankDomCount}, Env{})
	if ex4.RankedFrom != "cold" {
		t.Fatalf("domcount without cache: RankedFrom = %q, want cold", ex4.RankedFrom)
	}
}

// TestRestrictedMemoVariant pins the restricted skyline's cache
// behavior: its weight-suffixed variant memoises and hits, and after a
// mutation batch the entry dies with the snapshot (restricted sets are
// not incrementally maintainable) while the advanced cache still
// answers correctly from the maintained base skyline.
func TestRestrictedMemoVariant(t *testing.T) {
	ds := sampleDS(t, 60)
	memo := NewMemoCache()
	env := Env{Cache: memo}
	q := Query{FWeights: []float64{0.5, 0.25}}

	want, err := Naive(ds, q)
	if err != nil {
		t.Fatal(err)
	}
	cold, ex1 := runPlan(t, ds, q, env)
	if ex1.CacheHit {
		t.Fatalf("first restricted run reported a cache hit: %+v", ex1)
	}
	if !equal32(sorted32(cold), sorted32(want)) {
		t.Fatalf("restricted skyline %v, oracle %v", sorted32(cold), sorted32(want))
	}
	hit, ex2 := runPlan(t, ds, q, env)
	if !ex2.CacheHit || !strings.Contains(ex2.RouteReason, "restricted skyline cached") {
		t.Fatalf("second restricted run: CacheHit=%v RouteReason=%q", ex2.CacheHit, ex2.RouteReason)
	}
	if !equal32(sorted32(hit), sorted32(want)) {
		t.Fatalf("cached restricted skyline %v, oracle %v", sorted32(hit), sorted32(want))
	}

	// Mutate: the base skyline is maintained across the batch, the
	// restricted entry is dropped (not a fallback — by design), and the
	// re-run recomputes the restriction from the maintained base.
	newDS, delta := mutateDS(ds, []int{1, 7, 20}, nil)
	adv := memo.Advance(ds, newDS, delta)
	aenv := Env{Cache: adv}
	newWant, err := Naive(newDS, q)
	if err != nil {
		t.Fatal(err)
	}
	after, ex3 := runPlan(t, newDS, q, aenv)
	if ex3.CacheHit && strings.Contains(ex3.RouteReason, "restricted skyline cached") {
		t.Fatalf("restricted entry survived the batch: %+v", ex3)
	}
	if !equal32(sorted32(after), sorted32(newWant)) {
		t.Fatalf("post-batch restricted skyline %v, oracle %v", sorted32(after), sorted32(newWant))
	}
}
