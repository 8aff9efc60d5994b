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
