package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/store"
)

// TestHashPartitioner pins determinism and spread.
func TestHashPartitioner(t *testing.T) {
	sc, err := serve.NewSchema([]string{"x"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := newPartitioner(nil, sc, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]int)
	for i := 0; i < 400; i++ {
		r := serve.RowSpec{TO: []int64{int64(i)}}
		si := p.route(r)
		if si != p.route(r) {
			t.Fatal("hash routing not deterministic")
		}
		if si < 0 || si >= 4 {
			t.Fatalf("shard %d out of range", si)
		}
		seen[si]++
	}
	for s := 0; s < 4; s++ {
		if seen[s] == 0 {
			t.Fatalf("shard %d received no rows: %v", s, seen)
		}
	}
}

// TestHashPartitionerStructuredRows: FNV-1a's low bits are linear in
// the input, so without avalanche mixing `hash % 2` is constant over
// anti-correlated rows (i, n−i) with n even — every row would land on
// one shard. Both shards must get a healthy share.
func TestHashPartitionerStructuredRows(t *testing.T) {
	sc, err := serve.NewSchema([]string{"x", "y"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := newPartitioner(nil, sc, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	const n = 400
	seen := make(map[int]int)
	for i := 0; i < n; i++ {
		seen[p.route(serve.RowSpec{TO: []int64{int64(i), int64(n - i)}})]++
	}
	for s := 0; s < 2; s++ {
		if seen[s] < n/4 {
			t.Fatalf("shard %d got %d of %d structured rows (%v) — degenerate hash routing", s, seen[s], n, seen)
		}
	}
}

// TestRangePartitioner covers explicit and derived bounds.
func TestRangePartitioner(t *testing.T) {
	sc, err := serve.NewSchema([]string{"x", "y"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := newPartitioner(&serve.PartitionSpec{By: "range", Column: "y", Bounds: []int64{10, 20}}, sc, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		y    int64
		want int
	}{{0, 0}, {9, 0}, {10, 1}, {19, 1}, {20, 2}, {999, 2}} {
		if got := p.route(serve.RowSpec{TO: []int64{0, tc.y}}); got != tc.want {
			t.Errorf("y=%d routed to %d, want %d", tc.y, got, tc.want)
		}
	}
	// Derived bounds split the create's rows roughly evenly.
	var rows []serve.RowSpec
	for i := 0; i < 90; i++ {
		rows = append(rows, serve.RowSpec{TO: []int64{int64(i), 0}})
	}
	p2, err := newPartitioner(&serve.PartitionSpec{By: "range"}, sc, rows, 3)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 3)
	for _, r := range rows {
		counts[p2.route(r)]++
	}
	for s, c := range counts {
		if c < 20 || c > 40 {
			t.Fatalf("derived bounds unbalanced: shard %d got %d of 90 (%v)", s, c, counts)
		}
	}
	// Error cases.
	if _, err := newPartitioner(&serve.PartitionSpec{By: "range"}, sc, nil, 2); err == nil {
		t.Fatal("range with neither bounds nor rows accepted")
	}
	if _, err := newPartitioner(&serve.PartitionSpec{By: "zebra"}, sc, nil, 2); err == nil {
		t.Fatal("unknown partitioning accepted")
	}
	if _, err := newPartitioner(&serve.PartitionSpec{By: "range", Bounds: []int64{5, 2}}, sc, nil, 3); err == nil {
		t.Fatal("descending bounds accepted")
	}
}

// TestShardPruning builds the textbook pruning scenario: correlated
// data range-partitioned on x, so the low shard's rows dominate the
// high shard's entire region — the high shard must be skipped, with
// results identical to the unpruned single node.
func TestShardPruning(t *testing.T) {
	// TO-only table: pruning needs no PO-top condition. y is floored at
	// 10 so a later y=0 insert is incomparable to every original row.
	var rows []serve.RowSpec
	for i := 0; i < 120; i++ {
		rows = append(rows, serve.RowSpec{TO: []int64{int64(i * 3), int64(10 + i*3 + i%7)}})
	}
	spec := serve.TableSpec{
		Name:      "corr",
		TOColumns: []string{"x", "y"},
		Rows:      rows,
		Partition: &serve.PartitionSpec{By: "range", Column: "x"},
	}

	urls := make([]string, 2)
	for i := range urls {
		ts := httptest.NewServer(serve.New(8).Handler())
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	// Range-partitioned creates need a durable catalog.
	co, err := New(Config{Shards: urls, Catalog: store.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(co.Handler(serve.New(8).Handler()))
	t.Cleanup(front.Close)

	single := httptest.NewServer(func() http.Handler {
		s := serve.New(8)
		plain := spec
		plain.Partition = nil
		if _, err := s.CreateTable(plain); err != nil {
			t.Fatal(err)
		}
		return s.Handler()
	}())
	t.Cleanup(single.Close)

	tc := &testCluster{t: t, co: front, single: single}
	tc.postJSON(front.URL+"/tables", spec, nil, http.StatusCreated)

	resp := tc.query(front.URL, "corr", serve.QueryRequest{Algo: "stss"})
	if resp.Cluster == nil {
		t.Fatal("coordinator response carries no cluster metadata")
	}
	if len(resp.Cluster.Pruned) != 1 || resp.Cluster.Pruned[0] != 1 {
		t.Fatalf("pruned shards %v, want [1] (high-x shard dominated by low-x rows)", resp.Cluster.Pruned)
	}
	if resp.Rows != len(rows) {
		t.Fatalf("rows %d, want %d (pruned shard counted from stats)", resp.Rows, len(rows))
	}
	ref := tc.query(single.URL, "corr", serve.QueryRequest{Algo: "stss"})
	tc.checkSetEqual("pruned-query", resp, ref)

	// A repeat of the same planner query hits every contacted shard's
	// snapshot memo, and the coordinator relays that in cacheHit —
	// single-node wire parity.
	again := tc.query(front.URL, "corr", serve.QueryRequest{Algo: "stss"})
	if !again.CacheHit {
		t.Fatal("repeat planner query did not report the shards' cache hit")
	}
	tc.checkSetEqual("pruned-query-repeat", again, ref)

	// Anti-correlated rows added to the high shard un-prune it: a row
	// with tiny y cannot be dominated through the corner.
	var batch serve.BatchRequest
	batch.Add = []serve.RowSpec{{TO: []int64{900, 0}}}
	tc.postJSON(front.URL+"/tables/corr/rows:batch", batch, nil, http.StatusOK)
	resp = tc.query(front.URL, "corr", serve.QueryRequest{Algo: "stss"})
	if len(resp.Cluster.Pruned) != 0 {
		t.Fatalf("pruned %v after anti-correlated insert, want none", resp.Cluster.Pruned)
	}
	found := false
	for i := range resp.Skyline {
		if resp.Skyline[i].TO[0] == 900 && resp.Skyline[i].TO[1] == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("anti-correlated row missing from the skyline after un-pruning")
	}
}

// TestUniversalTops pins the PO-side pruning guard on the diamond.
func TestUniversalTops(t *testing.T) {
	sc, err := serve.NewSchema(nil, []serve.OrderSpec{{
		Values: []string{"a", "b", "c", "d"},
		Edges:  [][2]string{{"a", "b"}, {"a", "c"}, {"b", "d"}, {"c", "d"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	doms, err := sc.BaseDomains()
	if err != nil {
		t.Fatal(err)
	}
	tops := universalTops(doms[0])
	if len(tops) != 1 || !tops[0] {
		t.Fatalf("diamond tops %v, want {a}", tops)
	}
}

// TestDualRoleNode runs one process as both coordinator and shard 0:
// the shard-direct header must break the recursion, and results must
// match a single node.
func TestDualRoleNode(t *testing.T) {
	// Shard 1: a plain remote node.
	remote := httptest.NewServer(serve.NewWithConfig(serve.Config{
		Shard: &serve.ShardIdentity{Index: 1, Count: 2},
	}).Handler())
	t.Cleanup(remote.Close)

	// The dual-role node: its own URL is shard 0 of its own cluster.
	var handler atomic.Value
	self := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(http.Handler).ServeHTTP(w, r)
	}))
	t.Cleanup(self.Close)
	local := serve.NewWithConfig(serve.Config{Shard: &serve.ShardIdentity{Index: 0, Count: 2}})
	co, err := New(Config{Shards: []string{self.URL, remote.URL}})
	if err != nil {
		t.Fatal(err)
	}
	handler.Store(co.Handler(local.Handler()))

	rows := fixtureRows(120, 99)
	spec := fixtureSpec("dual", rows)
	single := httptest.NewServer(func() http.Handler {
		s := serve.New(8)
		if _, err := s.CreateTable(spec); err != nil {
			t.Fatal(err)
		}
		return s.Handler()
	}())
	t.Cleanup(single.Close)

	tc := &testCluster{t: t, co: self, single: single}
	tc.postJSON(self.URL+"/tables", spec, nil, http.StatusCreated)
	tc.checkSetEqual("dual-role",
		tc.query(self.URL, "dual", serve.QueryRequest{Explain: true}),
		tc.query(single.URL, "dual", serve.QueryRequest{Explain: true}))
}

// TestShardIdentityMismatch proves a mis-wired topology is rejected:
// a coordinator whose shard list is permuted against the nodes' own
// -shard-of identities cannot mutate them.
func TestShardIdentityMismatch(t *testing.T) {
	urls := make([]string, 2)
	for i := range urls {
		// Deliberately inverted identities.
		ts := httptest.NewServer(serve.NewWithConfig(serve.Config{
			Shard: &serve.ShardIdentity{Index: 1 - i, Count: 2},
		}).Handler())
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	co, err := New(Config{Shards: urls})
	if err != nil {
		t.Fatal(err)
	}
	_, err = co.CreateTable(context.Background(), fixtureSpec("bad", fixtureRows(10, 3)))
	if err == nil {
		t.Fatal("create against permuted shard identities succeeded")
	}
	var se *shardError
	if !asShardError(err, &se) || se.status != http.StatusConflict {
		t.Fatalf("error %v, want a shard 409", err)
	}
}

// TestAdopt rebuilds the catalog after a coordinator restart.
func TestAdopt(t *testing.T) {
	rows := fixtureRows(80, 5)
	spec := fixtureSpec("keep", rows)
	tc := newTestCluster(t, 2, spec)

	// A second coordinator over the same shards starts with an empty
	// catalog; Adopt finds the table and serving resumes.
	co2, err := New(Config{Shards: shardURLs(tc.coord)})
	if err != nil {
		t.Fatal(err)
	}
	adopted, err := co2.Adopt(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(adopted) != 1 || adopted[0] != "keep" {
		t.Fatalf("adopted %v, want [keep]", adopted)
	}
	front := httptest.NewServer(co2.Handler(serve.New(8).Handler()))
	t.Cleanup(front.Close)
	got := tc.query(front.URL, "keep", serve.QueryRequest{Explain: true})
	want := tc.query(tc.single.URL, "keep", serve.QueryRequest{Explain: true})
	tc.checkSetEqual("adopted", got, want)
}

func shardURLs(co *Coordinator) []string {
	urls := make([]string, len(co.shards))
	for i, sc := range co.shards {
		urls[i] = sc.base
	}
	return urls
}

// TestClusterzEndpoint smoke-checks the topology endpoint.
func TestClusterzEndpoint(t *testing.T) {
	tc := newTestCluster(t, 2, fixtureSpec("z", fixtureRows(20, 1)))
	var info ClusterzInfo
	getJSON(t, tc.co.URL+"/clusterz", &info)
	if len(info.Shards) != 2 || len(info.Tables) != 1 || info.Tables[0].Name != "z" {
		t.Fatalf("clusterz: %+v", info)
	}
}

// TestCoordinatorBatchValidation pins the remove contract.
func TestCoordinatorBatchValidation(t *testing.T) {
	tc := newTestCluster(t, 2, fixtureSpec("v", fixtureRows(20, 2)))
	resp, err := http.Post(tc.co.URL+"/tables/v/rows:batch", "application/json",
		strings.NewReader(`{"remove":[1]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("plain remove against the coordinator: status %d, want 400", resp.StatusCode)
	}
	// Out-of-range shard.
	resp2, err := http.Post(tc.co.URL+"/tables/v/rows:batch", "application/json",
		strings.NewReader(`{"removeSharded":[{"shard":9,"row":0}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range shard: status %d, want 400", resp2.StatusCode)
	}
}

// TestCoordinatorStatsEndpoint covers the coordinator's GET
// /tables/{t}/stats: the shards' row counts summed and TO bounds
// unioned, one body per shard, and none of the keys the planner's
// estimates once read, merged or per shard.
func TestCoordinatorStatsEndpoint(t *testing.T) {
	rows := fixtureRows(40, 2)
	tc := newTestCluster(t, 2, fixtureSpec("diff", rows))
	var raw json.RawMessage
	getJSON(t, tc.co.URL+"/tables/diff/stats", &raw)
	for _, key := range []string{`"learned"`, `"corrSign"`, `"distinct"`, `"po"`} {
		if strings.Contains(string(raw), key) {
			t.Fatalf("coordinator stats body still carries %s: %s", key, raw)
		}
	}
	var got serve.TableStatsInfo
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	want := plan.ColStats{Min: rows[0].TO[0], Max: rows[0].TO[0]}
	for _, r := range rows {
		want.Min, want.Max = min(want.Min, r.TO[0]), max(want.Max, r.TO[0])
	}
	if got.Rows != len(rows) || len(got.PerShard) != 2 || got.Stats == nil ||
		got.Stats.Rows != len(rows) || got.Stats.TO[0] != want {
		t.Fatalf("merged stats %+v (rows %d, %d shard bodies), want %d rows and x in %+v",
			got.Stats, got.Rows, len(got.PerShard), len(rows), want)
	}
}
