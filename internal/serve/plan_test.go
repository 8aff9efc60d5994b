package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"testing"

	"repro/internal/plan"
	"repro/internal/store"
)

func queryRows(resp QueryResponse) []int {
	rows := make([]int, len(resp.Skyline))
	for i, r := range resp.Skyline {
		rows[i] = r.Row
	}
	sort.Ints(rows)
	return rows
}

func i64(v int64) *int64 { return &v }

// TestPlanQueryEndpoint drives every variant of the planner path over
// the Figure 1 flights table, against hand-derived expectations.
func TestPlanQueryEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	url := ts.URL + "/tables/flights/query"

	cases := []struct {
		name string
		req  QueryRequest
		want []int
	}{
		// Table I static skyline, through the planner.
		{"full", QueryRequest{Explain: true}, []int{0, 4, 5, 8, 9}},
		// price ≤ 1200 keeps rows 3,5,6,8,9; their skyline is 5,8,9.
		{"constrained-to", QueryRequest{Where: []WhereSpec{{Col: "price", Le: i64(1200)}}}, []int{5, 8, 9}},
		// airline ∈ {a,b} keeps rows 0..5; their skyline is 0,4,5.
		{"constrained-po", QueryRequest{Where: []WhereSpec{{Col: "airline", In: []string{"a", "b"}}}}, []int{0, 4, 5}},
		// price alone: the cheapest ticket wins.
		{"subspace-to", QueryRequest{Subspace: []string{"price"}}, []int{8}},
		// price + airline (stops projected away).
		{"subspace-mixed", QueryRequest{Subspace: []string{"price", "airline"}}, []int{4, 5, 8, 9}},
		// Forced algorithm still answers exactly.
		{"forced-stss", QueryRequest{Algo: "stss"}, []int{0, 4, 5, 8, 9}},
		// Non-anti-monotone lower bound: rows with price ≥ 1400 are
		// 0,1,4,7; their skyline is 0 (1800,0,a) and 4 (1400,1,a).
		{"constrained-lower", QueryRequest{Where: []WhereSpec{{Col: "price", Ge: i64(1400)}}}, []int{0, 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resp QueryResponse
			if code := doJSON(t, http.MethodPost, url, tc.req, &resp); code != http.StatusOK {
				t.Fatalf("status %d", code)
			}
			if got := queryRows(resp); fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("rows %v, want %v", got, tc.want)
			}
			if resp.Count != len(tc.want) || resp.Algo == "" {
				t.Fatalf("count %d algo %q", resp.Count, resp.Algo)
			}
		})
	}

	// Top-k: two rows, both members of the full skyline; explain
	// reports the decisions.
	full := map[int]bool{0: true, 4: true, 5: true, 8: true, 9: true}
	for _, rank := range []string{"", "domcount", "ideal"} {
		req := QueryRequest{TopK: 2, Rank: rank, Explain: true}
		if rank == "ideal" {
			req.Ideal = []int64{500, 0}
		}
		var resp QueryResponse
		if code := doJSON(t, http.MethodPost, url, req, &resp); code != http.StatusOK {
			t.Fatalf("topk rank %q: status %d", rank, code)
		}
		if len(resp.Skyline) != 2 {
			t.Fatalf("topk rank %q: %d rows", rank, len(resp.Skyline))
		}
		for _, r := range resp.Skyline {
			if !full[r.Row] {
				t.Fatalf("topk rank %q: row %d outside the skyline", rank, r.Row)
			}
		}
		if resp.Plan == nil || resp.Plan.Algorithm == "" || resp.Plan.Variant != "top-k" {
			t.Fatalf("topk rank %q: plan %+v", rank, resp.Plan)
		}
	}
}

// TestPlanQueryExplainAndCacheRouting pins the optimizer's observable
// decisions: cold constrained queries push down; once a full query has
// warmed the snapshot's skyline memo, an anti-monotone constrained
// query is served post-filter from the cache, while a lower-bounded
// (non-anti-monotone) one still pushes down.
func TestPlanQueryExplainAndCacheRouting(t *testing.T) {
	_, ts := newTestServer(t)
	url := ts.URL + "/tables/flights/query"
	am := QueryRequest{Where: []WhereSpec{{Col: "price", Le: i64(1200)}}, Explain: true}

	var cold QueryResponse
	doJSON(t, http.MethodPost, url, am, &cold)
	if cold.Plan == nil || cold.Plan.Route != plan.RoutePushdown || !cold.Plan.AntiMonotone {
		t.Fatalf("cold constrained plan: %+v", cold.Plan)
	}

	var fullResp QueryResponse
	doJSON(t, http.MethodPost, url, QueryRequest{Explain: true}, &fullResp)
	if fullResp.CacheHit {
		t.Fatal("first full query reported a cache hit")
	}

	var warm QueryResponse
	doJSON(t, http.MethodPost, url, am, &warm)
	if warm.Plan == nil || warm.Plan.Route != plan.RoutePostFilter || !warm.CacheHit {
		t.Fatalf("warm constrained plan: %+v cacheHit=%v", warm.Plan, warm.CacheHit)
	}
	if fmt.Sprint(queryRows(warm)) != fmt.Sprint(queryRows(cold)) {
		t.Fatalf("post-filter answer %v differs from pushdown %v", queryRows(warm), queryRows(cold))
	}

	nonAM := QueryRequest{Where: []WhereSpec{{Col: "price", Ge: i64(1400)}}, Explain: true}
	var lower QueryResponse
	doJSON(t, http.MethodPost, url, nonAM, &lower)
	if lower.Plan == nil || lower.Plan.Route != plan.RoutePushdown || lower.Plan.AntiMonotone || lower.CacheHit {
		t.Fatalf("non-anti-monotone plan: %+v cacheHit=%v", lower.Plan, lower.CacheHit)
	}

	// A batch advances the memo across the delta instead of dropping
	// it: the post-batch full query is a *maintained* cache hit — same
	// answer as a cold recompute on the new snapshot.
	var batch BatchResponse
	doJSON(t, http.MethodPost, ts.URL+"/tables/flights/rows:batch",
		BatchRequest{Add: []RowSpec{{TO: []int64{400, 3}, PO: []string{"d"}}}}, &batch)
	var after QueryResponse
	doJSON(t, http.MethodPost, url, QueryRequest{Explain: true}, &after)
	if !after.CacheHit || after.Plan == nil || !after.Plan.Maintained {
		t.Fatalf("full query after a batch: cacheHit=%v plan=%+v, want maintained hit", after.CacheHit, after.Plan)
	}
	if after.Version != batch.Version {
		t.Fatalf("served version %d, batch produced %d", after.Version, batch.Version)
	}
	var afterCold QueryResponse
	doJSON(t, http.MethodPost, url, QueryRequest{Explain: true, NoCache: true}, &afterCold)
	if fmt.Sprint(queryRows(after)) != fmt.Sprint(queryRows(afterCold)) {
		t.Fatalf("maintained answer %v differs from cold recompute %v", queryRows(after), queryRows(afterCold))
	}
}

// TestPlanQueryErrors: every malformed planner request is a 400 with a
// diagnostic, and a bare {} keeps its legacy dTSS meaning.
func TestPlanQueryErrors(t *testing.T) {
	_, ts := newTestServer(t)
	url := ts.URL + "/tables/flights/query"
	bad := []QueryRequest{
		{Subspace: []string{"bogus"}},
		{Where: []WhereSpec{{Col: "bogus", Le: i64(1)}}},
		{Where: []WhereSpec{{Col: "airline", Le: i64(1)}}},      // le on a PO column
		{Where: []WhereSpec{{Col: "price", In: []string{"a"}}}}, // in on a TO column
		{Where: []WhereSpec{{Col: "airline", In: []string{"z"}}}},
		{Where: []WhereSpec{{Col: "price"}}}, // no bounds
		{TopK: 2, Rank: "bogus"},
		{Rank: "domcount"}, // rank without topK
		{Algo: "bogus"},
		{Algo: "less"},                  // retired algorithm
		{Algo: "bnl"},                   // a baseline, not served
		{Subspace: []string{"airline"}}, // no TO column kept
	}
	for i, req := range bad {
		var e errorResponse
		if code := doJSON(t, http.MethodPost, url, req, &e); code != http.StatusBadRequest {
			t.Errorf("bad request %d (%+v): status %d (error %q)", i, req, code, e.Error)
		}
	}

	// A bare {} is the zero query: the table's skyline, 200.
	var zero QueryResponse
	if code := doJSON(t, http.MethodPost, url, QueryRequest{}, &zero); code != http.StatusOK {
		t.Fatalf("bare query: status %d", code)
	}
	if !slices.Equal(rowSet(zero.Skyline), []int{0, 4, 5, 8, 9}) {
		t.Fatalf("bare query: %v, want the table's skyline", rowSet(zero.Skyline))
	}

	// orders is one more field of the query, not a mode: beside topK it
	// keeps K rows of the skyline under *those* preferences (b over a:
	// rows 2 5 6 7 8 9), and stays a 400 only when malformed itself.
	mixed := QueryRequest{
		Orders: []QueryOrder{{Edges: [][2]string{{"b", "a"}}}},
		TopK:   2,
	}
	var top QueryResponse
	if code := doJSON(t, http.MethodPost, url, mixed, &top); code != http.StatusOK || top.Count != 2 {
		t.Fatalf("orders+topK: status %d, count %d (want 200, 2)", code, top.Count)
	}
	for _, r := range rowSet(top.Skyline) {
		if !contains([]int{2, 5, 6, 7, 8, 9}, r) {
			t.Fatalf("orders+topK: row %d is not in the skyline under b over a", r)
		}
	}
	mixed.Orders = append(mixed.Orders, QueryOrder{})
	var e errorResponse
	if code := doJSON(t, http.MethodPost, url, mixed, &e); code != http.StatusBadRequest || e.Error == "" {
		t.Fatalf("orders of the wrong arity + topK: status %d (want 400, error %q)", code, e.Error)
	}
}

// TestCreateRejectsColumnNameCollisions: the planner addresses columns
// through one shared namespace, so a table whose names collide across
// kinds (or with the po<d> fallback) is refused at creation.
func TestCreateRejectsColumnNameCollisions(t *testing.T) {
	order := OrderSpec{Name: "grade", Values: []string{"a", "b"}}
	cases := []TableSpec{
		{Name: "t", TOColumns: []string{"grade"}, Orders: []OrderSpec{order}},
		{Name: "t", TOColumns: []string{"x", "x"}},
		{Name: "t", TOColumns: []string{"po0"}, Orders: []OrderSpec{{Values: []string{"a"}}}},
		{Name: "t", TOColumns: []string{"x"}, Orders: []OrderSpec{
			{Name: "po1", Values: []string{"a"}}, {Values: []string{"a"}}}}, // named "po1" collides with fallback of column 1
	}
	s := New(4)
	for i, spec := range cases {
		if _, err := s.CreateTable(spec); err == nil {
			t.Errorf("case %d (%+v): colliding column names accepted", i, spec)
		}
	}
}

// TestLookupColPositionalAlias: "po<d>" reaches a named PO column too,
// and a declared name wins over another column's position.
func TestLookupColPositionalAlias(t *testing.T) {
	sc, err := NewSchema([]string{"x"}, []OrderSpec{
		{Name: "po1", Values: []string{"a"}}, {Name: "grade", Values: []string{"a"}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		tok  string
		want int
	}{{"po1", 0}, {"po0", 0}, {"grade", 1}} {
		if dim, isTO, err := sc.LookupCol(c.tok); err != nil || isTO || dim != c.want {
			t.Errorf("LookupCol(%q) = (%d, %v, %v), want PO column %d", c.tok, dim, isTO, err, c.want)
		}
	}
	if _, _, err := sc.LookupCol("po2"); err == nil {
		t.Error("LookupCol(\"po2\") accepted past the last PO column")
	}
}

// TestRecoverIgnoresAlgoCosts: the planner keeps no statistics of its
// own, so a checkpoint writes no stats section — and a snapshot from
// before that, whose stats section still carries a skyline fraction and
// per-algorithm cost entries, recovers and serves queries with all of
// it ignored, and its next checkpoint drops the section.
func TestRecoverIgnoresAlgoCosts(t *testing.T) {
	st := store.NewMem()
	s := NewWithConfig(Config{Store: st})
	if _, err := s.CreateTable(flightsSpec("flights")); err != nil {
		t.Fatal(err)
	}
	e, _ := s.table("flights")
	if _, _, err := e.current().table.Query(plan.Query{}); err != nil {
		t.Fatal(err)
	}
	img, err := e.storeSnapshot(e.current())
	if err != nil {
		t.Fatal(err)
	}
	if img.Stats != nil {
		t.Fatalf("checkpoint stats %+v, want no stats section", img.Stats)
	}
	img.Stats = &store.TableStatsRecord{SkyFrac: 0.5, SkyFracN: 7,
		Algos: []store.AlgoCostRecord{{Name: "bnl", Mult: 2.5, N: 4}, {Name: "less", Mult: 0.5, N: 2}, {Name: "stss", Mult: 3, N: 9}}}
	if err := st.SaveSnapshot("flights", img); err != nil {
		t.Fatal(err)
	}
	if old, err := st.Load("flights"); err != nil || old.Stats == nil || old.Stats.SkyFracN != 7 || len(old.Stats.Algos) != 3 {
		t.Fatalf("saved snapshot does not carry the old stats section: %v %+v", err, old)
	}

	s2 := NewWithConfig(Config{Store: st})
	if _, err := s2.Recover(); err != nil {
		t.Fatal(err)
	}
	e2, ok := s2.table("flights")
	if !ok {
		t.Fatal("table not recovered")
	}
	ts := httptest.NewServer(s2.Handler())
	defer ts.Close()
	var resp QueryResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/tables/flights/query", QueryRequest{NoCache: true, Explain: true}, &resp); code != http.StatusOK {
		t.Fatalf("query after recovery: status %d", code)
	}
	if got := queryRows(resp); fmt.Sprint(got) != fmt.Sprint([]int{0, 4, 5, 8, 9}) || resp.Algo != "sfs" {
		t.Fatalf("query after recovery: rows %v by %q, want [0 4 5 8 9] by sfs", got, resp.Algo)
	}
	img2, err := e2.storeSnapshot(e2.current())
	if err != nil {
		t.Fatal(err)
	}
	if img2.Stats != nil {
		t.Fatalf("checkpoint after recovery: stats %+v, want no stats section", img2.Stats)
	}
}
