package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// flightsSpec is the paper's Figure 1 ticket table: airlines a..d with
// a→b, a→c, b→d, c→d. Static skyline (Table I): p1, p5, p6, p9, p10 =
// rows 0, 4, 5, 8, 9; under the dynamic order "only b over a": rows
// 2, 5, 6, 7, 8, 9.
func flightsSpec(name string) TableSpec {
	rows := []struct {
		price, stops int64
		airline      string
	}{
		{1800, 0, "a"}, {2000, 0, "a"}, {1800, 0, "b"}, {1200, 1, "b"}, {1400, 1, "a"},
		{1000, 1, "b"}, {1000, 1, "d"}, {1800, 1, "c"}, {500, 2, "d"}, {1200, 2, "c"},
	}
	spec := TableSpec{
		Name:      name,
		TOColumns: []string{"price", "stops"},
		Orders: []OrderSpec{{
			Name:   "airline",
			Values: []string{"a", "b", "c", "d"},
			Edges:  [][2]string{{"a", "b"}, {"a", "c"}, {"b", "d"}, {"c", "d"}},
		}},
	}
	for _, r := range rows {
		spec.Rows = append(spec.Rows, RowSpec{TO: []int64{r.price, r.stops}, PO: []string{r.airline}})
	}
	return spec
}

// newTestServer starts an httptest server with the flights table.
func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(8)
	if _, err := s.CreateTable(flightsSpec("flights")); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// doJSON issues a request and decodes the JSON response into out
// (skipped when out is nil), returning the status code.
func doJSON(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var reqBody *bytes.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		reqBody = bytes.NewReader(buf)
	} else {
		reqBody = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, reqBody)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func rowSet(rows []SkylineRow) []int {
	out := make([]int, len(rows))
	for i, r := range rows {
		out[i] = r.Row
	}
	sort.Ints(out)
	return out
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

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	var out map[string]string
	if code := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, &out); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if out["status"] != "ok" {
		t.Fatalf("healthz body: %v", out)
	}
}

func TestTableLifecycle(t *testing.T) {
	_, ts := newTestServer(t)

	// Duplicate create conflicts.
	if code := doJSON(t, http.MethodPost, ts.URL+"/tables", flightsSpec("flights"), nil); code != http.StatusConflict {
		t.Fatalf("duplicate create: %d, want 409", code)
	}
	// A second table appears in the listing.
	var created TableInfo
	if code := doJSON(t, http.MethodPost, ts.URL+"/tables", flightsSpec("other"), &created); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	if created.Rows != 10 {
		t.Fatalf("created info: %+v", created)
	}
	var list []TableInfo
	doJSON(t, http.MethodGet, ts.URL+"/tables", nil, &list)
	if len(list) != 2 || list[0].Name != "flights" || list[1].Name != "other" {
		t.Fatalf("listing: %+v", list)
	}
	// Info, delete, then 404.
	var info TableInfo
	if code := doJSON(t, http.MethodGet, ts.URL+"/tables/other", nil, &info); code != http.StatusOK || info.Version != 0 {
		t.Fatalf("info: %d %+v", code, info)
	}
	if code := doJSON(t, http.MethodDelete, ts.URL+"/tables/other", nil, nil); code != http.StatusOK {
		t.Fatalf("delete: %d", code)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/tables/other", nil, nil); code != http.StatusNotFound {
		t.Fatalf("after delete: %d, want 404", code)
	}
	// Invalid specs are 400s.
	for _, spec := range []TableSpec{
		{},          // no name
		{Name: "x"}, // no columns
		{Name: "po-only", Orders: []OrderSpec{{Values: []string{"a", "b"}}}, Rows: []RowSpec{{PO: []string{"a"}}}},                             // no TO columns
		{Name: "cyc", TOColumns: []string{"t"}, Orders: []OrderSpec{{Values: []string{"a", "b"}, Edges: [][2]string{{"a", "b"}, {"b", "a"}}}}}, // cycle
		{Name: "dup", TOColumns: []string{"t"}, Orders: []OrderSpec{{Values: []string{"a", "a"}}}},                                             // dup labels
	} {
		if code := doJSON(t, http.MethodPost, ts.URL+"/tables", spec, nil); code != http.StatusBadRequest {
			t.Errorf("spec %+v: %d, want 400", spec, code)
		}
	}
}

// TestSkylineEndpoint: the table's skyline is POST /query with the
// algorithm forced and the memo bypassed, so every algorithm really
// runs; the GET /skyline shorthand is gone, and the paper's baselines
// are not served.
func TestSkylineEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	want := []int{0, 4, 5, 8, 9}
	url := ts.URL + "/tables/flights/query"

	for _, algo := range []string{"", "stss", "bnl"} {
		var out QueryResponse
		if code := doJSON(t, http.MethodPost, url, QueryRequest{Algo: algo, NoCache: true}, &out); code != http.StatusOK {
			t.Fatalf("algo %q: %d", algo, code)
		}
		if !equalInts(rowSet(out.Skyline), want) {
			t.Fatalf("algo %q skyline: %v, want %v", algo, rowSet(out.Skyline), want)
		}
		if out.Version != 0 || out.Rows != 10 || out.Count != 5 {
			t.Fatalf("algo %q header: %+v", algo, out)
		}
		if algo != "" && out.Algo != algo {
			t.Errorf("algo %q: response names %q", algo, out.Algo)
		}
		if out.CacheHit || out.Metrics.DomChecks == 0 {
			t.Errorf("algo %q: served without running (cacheHit %v, %d dominance checks)", algo, out.CacheHit, out.Metrics.DomChecks)
		}
	}
	// A forced paper baseline is an unknown algorithm.
	var baseline errorResponse
	if code := doJSON(t, http.MethodPost, url, QueryRequest{Algo: "sdc+", NoCache: true}, &baseline); code != http.StatusBadRequest {
		t.Errorf("algo \"sdc+\": %d, want 400", code)
	}
	if !strings.Contains(baseline.Error, "unknown algorithm") || !strings.Contains(baseline.Error, "(have: bnl, less, sfs, stss)") {
		t.Errorf("algo \"sdc+\": error %q, want the unknown-algorithm refusal naming the four serving algorithms", baseline.Error)
	}
	// Parallel executor route.
	var par QueryResponse
	if code := doJSON(t, http.MethodPost, url, QueryRequest{Algo: "stss", Parallel: 2, NoCache: true}, &par); code != http.StatusOK {
		t.Fatalf("parallel: %d", code)
	}
	if !equalInts(rowSet(par.Skyline), want) {
		t.Fatalf("parallel skyline: %v", rowSet(par.Skyline))
	}
	if par.Metrics.DomChecks == 0 {
		t.Errorf("parallel: metrics missing dominance checks")
	}
	// Limit truncates rows but keeps the count.
	var lim QueryResponse
	doJSON(t, http.MethodPost, url+"?limit=2", QueryRequest{}, &lim)
	if len(lim.Skyline) != 2 || lim.Count != 5 {
		t.Fatalf("limit: %d rows, count %d", len(lim.Skyline), lim.Count)
	}
	// Errors: unknown algorithm, TO-only algorithm on a PO table, bad ints.
	for name, c := range map[string]struct {
		query string
		req   QueryRequest
	}{
		"bogus algo": {req: QueryRequest{Algo: "bogus"}},
		"less on PO": {req: QueryRequest{Algo: "less", NoCache: true}},
		"bad limit":  {query: "?limit=x"},
	} {
		if code := doJSON(t, http.MethodPost, url+c.query, c.req, nil); code != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400", name, code)
		}
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/tables/nope/query", QueryRequest{}, nil); code != http.StatusNotFound {
		t.Errorf("missing table: %d, want 404", code)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/tables/flights/skyline", nil, nil); code != http.StatusNotFound {
		t.Errorf("GET /skyline: %d, want 404", code)
	}
}

func TestQueryEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	bOverA := QueryRequest{Orders: []QueryOrder{{Edges: [][2]string{{"b", "a"}}}}}
	want := []int{2, 5, 6, 7, 8, 9}

	var out QueryResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/tables/flights/query", bOverA, &out); code != http.StatusOK {
		t.Fatalf("query: %d", code)
	}
	if !equalInts(rowSet(out.Skyline), want) {
		t.Fatalf("dynamic skyline: %v, want %v", rowSet(out.Skyline), want)
	}
	if out.CacheHit {
		t.Fatal("first query must miss the cache")
	}
	// The identical query — rebuilt from scratch on the wire — hits.
	var hit QueryResponse
	doJSON(t, http.MethodPost, ts.URL+"/tables/flights/query", bOverA, &hit)
	if !hit.CacheHit {
		t.Fatal("second identical query must hit the cache")
	}
	if !equalInts(rowSet(hit.Skyline), want) {
		t.Fatalf("cached skyline: %v", rowSet(hit.Skyline))
	}
	if hit.Metrics.ReadIOs != 0 {
		t.Fatalf("cache hit read %d pages", hit.Metrics.ReadIOs)
	}

	// Limit truncates serialized rows but keeps the count.
	limited := bOverA
	limited.Limit = 2
	var lq QueryResponse
	doJSON(t, http.MethodPost, ts.URL+"/tables/flights/query", limited, &lq)
	if len(lq.Skyline) != 2 || lq.Count != len(want) {
		t.Fatalf("limited query: %d rows, count %d", len(lq.Skyline), lq.Count)
	}

	// The retired `baseline` ablation flag is ignored by lenient decoding:
	// the same query, the same memo entry.
	var bl QueryResponse
	raw := json.RawMessage(`{"orders":[{"edges":[["b","a"]]}],"baseline":true}`)
	if code := doJSON(t, http.MethodPost, ts.URL+"/tables/flights/query", raw, &bl); code != http.StatusOK {
		t.Fatalf("retired baseline field: %d", code)
	}
	if !equalInts(rowSet(bl.Skyline), want) || !bl.CacheHit {
		t.Fatalf("retired baseline field: skyline %v, cacheHit %v", rowSet(bl.Skyline), bl.CacheHit)
	}

	// Ideal-point query (fully dynamic): the traveller at (1200, 1)
	// preferring a; row 3 sits on the ideal point and must appear,
	// row 1 is dominated in the transformed space.
	ideal := QueryRequest{
		Orders: []QueryOrder{{Edges: [][2]string{{"a", "b"}, {"a", "c"}, {"a", "d"}}}},
		Ideal:  []int64{1200, 1},
	}
	var iq QueryResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/tables/flights/query", ideal, &iq); code != http.StatusOK {
		t.Fatalf("ideal query: %d", code)
	}
	got := rowSet(iq.Skyline)
	if !contains(got, 3) || contains(got, 1) {
		t.Fatalf("ideal skyline: %v (want row 3 in, row 1 out)", got)
	}

	// A bare {} is the zero query: the table's own skyline.
	var zero QueryResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/tables/flights/query", QueryRequest{}, &zero); code != http.StatusOK {
		t.Fatalf("bare {}: %d, want 200", code)
	}
	if !equalInts(rowSet(zero.Skyline), []int{0, 4, 5, 8, 9}) {
		t.Fatalf("bare {}: %v, want the table's skyline", rowSet(zero.Skyline))
	}

	// Errors: wrong arity, unknown label, cyclic order, ideal arity.
	bad := []QueryRequest{
		{Orders: []QueryOrder{{}, {}}},
		{Orders: []QueryOrder{{Edges: [][2]string{{"a", "z"}}}}},
		{Orders: []QueryOrder{{Edges: [][2]string{{"a", "b"}, {"b", "a"}}}}},
		{Orders: []QueryOrder{{}}, Ideal: []int64{1}},
	}
	for i, req := range bad {
		if code := doJSON(t, http.MethodPost, ts.URL+"/tables/flights/query", req, nil); code != http.StatusBadRequest {
			t.Errorf("bad query %d: %d, want 400", i, code)
		}
	}
}

func TestBatchAndStatsz(t *testing.T) {
	_, ts := newTestServer(t)

	// A dominated row changes nothing; a dominating row takes over.
	batch := BatchRequest{Add: []RowSpec{
		{TO: []int64{9999, 9}, PO: []string{"d"}}, // dominated
		{TO: []int64{100, 0}, PO: []string{"a"}},  // dominates everything a-ish
	}}
	var br BatchResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/tables/flights/rows:batch", batch, &br); code != http.StatusOK {
		t.Fatalf("batch: %d", code)
	}
	if br.Version != 1 || br.Rows != 12 || br.Added != 2 {
		t.Fatalf("batch response: %+v", br)
	}
	var out QueryResponse
	doJSON(t, http.MethodPost, ts.URL+"/tables/flights/query", QueryRequest{}, &out)
	if out.Version != 1 || out.Rows != 12 {
		t.Fatalf("post-batch skyline header: %+v", out)
	}
	if !contains(rowSet(out.Skyline), 11) {
		t.Fatalf("new dominating row missing: %v", rowSet(out.Skyline))
	}
	if contains(rowSet(out.Skyline), 0) {
		t.Fatalf("row 0 (1800,0,a) should now be dominated by (100,0,a): %v", rowSet(out.Skyline))
	}

	// Removal renumbers: drop the dominator again.
	var br2 BatchResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/tables/flights/rows:batch",
		BatchRequest{Remove: []int{11, 10}}, &br2); code != http.StatusOK {
		t.Fatalf("remove: %d", code)
	}
	if br2.Version != 2 || br2.Rows != 10 || br2.Removed != 2 {
		t.Fatalf("remove response: %+v", br2)
	}
	doJSON(t, http.MethodPost, ts.URL+"/tables/flights/query", QueryRequest{}, &out)
	if !equalInts(rowSet(out.Skyline), []int{0, 4, 5, 8, 9}) {
		t.Fatalf("after remove: %v", rowSet(out.Skyline))
	}
	// An empty batch is a no-op: no version bump, no cache discard.
	var noop BatchResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/tables/flights/rows:batch",
		BatchRequest{}, &noop); code != http.StatusOK {
		t.Fatalf("empty batch: %d", code)
	}
	if noop.Version != 2 || noop.Rows != 10 || noop.Added != 0 || noop.Removed != 0 {
		t.Fatalf("empty batch response: %+v", noop)
	}

	// Bad mutations.
	if code := doJSON(t, http.MethodPost, ts.URL+"/tables/flights/rows:batch",
		BatchRequest{Remove: []int{99}}, nil); code != http.StatusBadRequest {
		t.Errorf("oob remove: %d, want 400", code)
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/tables/flights/rows:batch",
		BatchRequest{Add: []RowSpec{{TO: []int64{1}, PO: []string{"a"}}}}, nil); code != http.StatusBadRequest {
		t.Errorf("bad arity add: %d, want 400", code)
	}

	// statsz: cumulative counters survive the snapshot swaps.
	q := QueryRequest{Orders: []QueryOrder{{Edges: [][2]string{{"d", "a"}}}}}
	doJSON(t, http.MethodPost, ts.URL+"/tables/flights/query", q, nil)
	doJSON(t, http.MethodPost, ts.URL+"/tables/flights/query", q, nil)
	var stats StatsResponse
	if code := doJSON(t, http.MethodGet, ts.URL+"/statsz", nil, &stats); code != http.StatusOK {
		t.Fatalf("statsz: %d", code)
	}
	if len(stats.Tables) != 1 || stats.Tables[0].Name != "flights" {
		t.Fatalf("statsz tables: %+v", stats.Tables)
	}
	ti := stats.Tables[0]
	if ti.Stats.Mutations != 2 {
		t.Errorf("mutations = %d, want 2", ti.Stats.Mutations)
	}
	if ti.Stats.CacheHits < 1 || ti.Stats.CacheMisses < 1 {
		t.Errorf("cache stats %+v, want hits and misses visible", ti.Stats)
	}
	if ti.Stats.Queries < 2 || stats.TotalQueries < ti.Stats.Queries {
		t.Errorf("query counters: table %d, total %d", ti.Stats.Queries, stats.TotalQueries)
	}
	if len(stats.Algorithms) == 0 || stats.UptimeSeconds < 0 {
		t.Errorf("statsz header: %+v", stats)
	}
}

func TestLoadCSVDir(t *testing.T) {
	dir := t.TempDir()
	csv := "to_0,po_0\n10,0\n20,1\n5,2\n"
	dag := "3\n0 1\n" // 0 preferred to 1; 2 incomparable
	if err := os.WriteFile(filepath.Join(dir, "data.csv"), []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "dag_0.txt"), []byte(dag), 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(0)
	info, err := s.LoadCSVDir("gen", dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Rows != 3 || len(info.Orders) != 1 || len(info.Orders[0].Values) != 3 {
		t.Fatalf("loaded info: %+v", info)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var out QueryResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/tables/gen/query", QueryRequest{}, &out); code != http.StatusOK {
		t.Fatalf("skyline: %d", code)
	}
	// (10,"0") dominates (20,"1"); (5,"2") survives on price.
	if !equalInts(rowSet(out.Skyline), []int{0, 2}) {
		t.Fatalf("skyline: %v", rowSet(out.Skyline))
	}

	if _, err := s.LoadCSVDir("missing", filepath.Join(dir, "nope")); err == nil {
		t.Error("missing dir must fail")
	}
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// TestVersionPinsSnapshot: a query response's version always describes
// the snapshot that answered it, even when read mid-mutation.
func TestVersionPinsSnapshot(t *testing.T) {
	s, _ := newTestServer(t)
	e, ok := s.table("flights")
	if !ok {
		t.Fatal("flights missing")
	}
	snap := e.current()
	if _, err := e.applyBatch(BatchRequest{Add: []RowSpec{{TO: []int64{1, 1}, PO: []string{"a"}}}}, nil); err != nil {
		t.Fatal(err)
	}
	// The old snapshot still answers with its own row count.
	if snap.table.Len() != 10 {
		t.Fatalf("published snapshot mutated: %d rows", snap.table.Len())
	}
	if e.current().table.Len() != 11 || e.current().version != 1 {
		t.Fatalf("swap missing: %+v", e.current().version)
	}
}
