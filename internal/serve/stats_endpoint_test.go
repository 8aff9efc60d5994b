package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// TestTableStatsEndpoint covers GET /tables/{t}/stats: row count and
// TO bounds for the serving snapshot, none of the keys the planner's
// estimates once read, and version tracking across a mutation.
func TestTableStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)

	var raw json.RawMessage
	if status := doJSON(t, http.MethodGet, ts.URL+"/tables/flights/stats", nil, &raw); status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	for _, key := range []string{`"learned"`, `"corrSign"`, `"distinct"`, `"po"`} {
		if strings.Contains(string(raw), key) {
			t.Fatalf("stats body still carries %s: %s", key, raw)
		}
	}
	var info TableStatsInfo
	if err := json.Unmarshal(raw, &info); err != nil {
		t.Fatal(err)
	}
	if info.Table != "flights" || info.Version != 0 || info.Rows != 10 {
		t.Fatalf("header wrong: %+v", info)
	}
	st := info.Stats
	if st == nil || st.Rows != 10 || len(st.TO) != 2 {
		t.Fatalf("stats shape wrong: %+v", st)
	}
	// flights prices span 500..2000, stops 0..2.
	if st.TO[0].Min != 500 || st.TO[0].Max != 2000 || st.TO[1].Min != 0 || st.TO[1].Max != 2 {
		t.Fatalf("bounds wrong: %+v", st.TO)
	}

	// A batch advances the version and the row count.
	if status := doJSON(t, http.MethodPost, ts.URL+"/tables/flights/rows:batch",
		BatchRequest{Add: []RowSpec{{TO: []int64{100, 0}, PO: []string{"d"}}}}, nil); status != http.StatusOK {
		t.Fatalf("batch status %d", status)
	}
	if status := doJSON(t, http.MethodGet, ts.URL+"/tables/flights/stats", nil, &info); status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if info.Version != 1 || info.Rows != 11 || info.Stats.Rows != 11 || info.Stats.TO[0].Min != 100 {
		t.Fatalf("post-batch stats stale: %+v / %+v", info, info.Stats)
	}
}

// TestDomCountEndpoint covers POST /tables/{t}/domcount: value-
// addressed candidates scored against the (optionally filtered,
// projected) table.
func TestDomCountEndpoint(t *testing.T) {
	_, ts := newTestServer(t)

	// Row (500,2,"d") dominates nothing PO-wise except worse-or-equal
	// airlines with worse TO; count it exactly: candidates are the
	// paper's p9 (500,2,d) and an ideal row dominating everything.
	req := DomCountRequest{Rows: []RowSpec{
		{TO: []int64{500, 2}, PO: []string{"d"}},
		{TO: []int64{0, 0}, PO: []string{"a"}},
	}}
	var resp DomCountResponse
	if status := doJSON(t, http.MethodPost, ts.URL+"/tables/flights/domcount", req, &resp); status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if len(resp.Counts) != 2 {
		t.Fatalf("got %d counts", len(resp.Counts))
	}
	// The synthetic ideal row (0,0,"a") dominates all 10 rows.
	if resp.Counts[1] != 10 {
		t.Fatalf("ideal candidate count %d, want 10", resp.Counts[1])
	}
	// A where-filter shrinks R: only rows with price <= 1000 count.
	le := int64(1000)
	req.Where = []WhereSpec{{Col: "price", Le: &le}}
	if status := doJSON(t, http.MethodPost, ts.URL+"/tables/flights/domcount", req, &resp); status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if resp.Counts[1] != 3 {
		t.Fatalf("filtered ideal candidate count %d, want 3 (rows priced <= 1000)", resp.Counts[1])
	}
	// Unknown labels and columns are 400s.
	bad := DomCountRequest{Rows: []RowSpec{{TO: []int64{1, 1}, PO: []string{"z"}}}}
	if status := doJSON(t, http.MethodPost, ts.URL+"/tables/flights/domcount", bad, nil); status != http.StatusBadRequest {
		t.Fatalf("bad label status %d", status)
	}
}

// TestSingleNodeRejectsClusterFields pins the single-node guardrails:
// partition specs and sharded removals belong to a coordinator.
func TestSingleNodeRejectsClusterFields(t *testing.T) {
	_, ts := newTestServer(t)
	spec := flightsSpec("partitioned")
	spec.Partition = &PartitionSpec{By: "hash"}
	if status := doJSON(t, http.MethodPost, ts.URL+"/tables", spec, nil); status != http.StatusBadRequest {
		t.Fatalf("partitioned create status %d, want 400", status)
	}
	req := BatchRequest{RemoveSharded: []ShardRef{{Shard: 0, Row: 1}}}
	if status := doJSON(t, http.MethodPost, ts.URL+"/tables/flights/rows:batch", req, nil); status != http.StatusBadRequest {
		t.Fatalf("removeSharded status %d, want 400", status)
	}
}

// TestSnapshotETag: /stats, /domcount and every buffered /query answer
// name their snapshot in one ETag, a batch moves it by one version, a
// dropped and recreated table at the same version gets another, and a
// stream carries none.
func TestSnapshotETag(t *testing.T) {
	s, ts := newTestServer(t)
	etag := func(method, path, body string) string {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: HTTP %d", method, path, resp.StatusCode)
		}
		return resp.Header.Get("ETag")
	}
	stats := func() string { return etag(http.MethodGet, "/tables/flights/stats", "") }
	first := stats()
	epoch, version, ok := strings.Cut(strings.Trim(first, `"`), ".")
	if !ok || version != "0" || epoch == "" || !strings.HasPrefix(first, `"`) || !strings.HasSuffix(first, `"`) {
		t.Fatalf("ETag %q, want \"<epoch>.0\"", first)
	}
	for _, body := range []string{`{}`, `{"topK": 2, "rank": "dpidp"}`, `{"noCache": true, "limit": 1}`} {
		if got := etag(http.MethodPost, "/tables/flights/query", body); got != first {
			t.Errorf("query %s: ETag %q, /stats says %q", body, got, first)
		}
	}
	if got := etag(http.MethodPost, "/tables/flights/domcount", `{"rows": [{"to": [500, 2], "po": ["d"]}]}`); got != first {
		t.Errorf("domcount: ETag %q, /stats says %q", got, first)
	}
	if got := etag(http.MethodPost, "/tables/flights/query?stream=1", `{}`); got != "" {
		t.Errorf("a stream carries ETag %q", got)
	}
	if status := doJSON(t, http.MethodPost, ts.URL+"/tables/flights/rows:batch",
		BatchRequest{Add: []RowSpec{{TO: []int64{100, 0}, PO: []string{"d"}}}}, nil); status != http.StatusOK {
		t.Fatalf("batch status %d", status)
	}
	if got, want := stats(), `"`+epoch+`.1"`; got != want {
		t.Errorf("after a batch: ETag %q, want %q", got, want)
	}
	if _, err := s.DropTable("flights"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTable(flightsSpec("flights")); err != nil {
		t.Fatal(err)
	}
	if got := stats(); got == first || !strings.HasSuffix(got, `.0"`) {
		t.Errorf("recreated table: ETag %q, want version 0 under a new epoch (was %q)", got, first)
	}
}
