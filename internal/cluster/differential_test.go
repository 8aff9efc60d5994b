package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"

	"repro/internal/replica"
	"repro/internal/serve"
)

// --- fixture -----------------------------------------------------------------

// fixtureSchema: 2 TO columns, a diamond PO column and a chain PO
// column — every dominance flavor (strict TO, incomparable PO,
// t-preference) occurs.
func fixtureSpec(name string, rows []serve.RowSpec) serve.TableSpec {
	return serve.TableSpec{
		Name:      name,
		TOColumns: []string{"x", "y"},
		Orders: []serve.OrderSpec{
			{Name: "cls", Values: []string{"a", "b", "c", "d"},
				Edges: [][2]string{{"a", "b"}, {"a", "c"}, {"b", "d"}, {"c", "d"}}},
			{Name: "tier", Values: []string{"t1", "t2", "t3"},
				Edges: [][2]string{{"t1", "t2"}, {"t2", "t3"}}},
		},
		Rows: rows,
	}
}

// fixtureRows generates a deterministic mixed workload with duplicates.
func fixtureRows(n int, seed int64) []serve.RowSpec {
	rng := rand.New(rand.NewSource(seed))
	cls := []string{"a", "b", "c", "d"}
	tier := []string{"t1", "t2", "t3"}
	rows := make([]serve.RowSpec, 0, n)
	for i := 0; i < n; i++ {
		r := serve.RowSpec{
			TO: []int64{int64(rng.Intn(1000)), int64(rng.Intn(1000))},
			PO: []string{cls[rng.Intn(4)], tier[rng.Intn(3)]},
		}
		rows = append(rows, r)
		if rng.Intn(20) == 0 && len(rows) < n { // ~5% exact duplicates
			rows = append(rows, serve.RowSpec{
				TO: append([]int64(nil), r.TO...),
				PO: append([]string(nil), r.PO...),
			})
			i++
		}
	}
	return rows
}

// --- harness -----------------------------------------------------------------

type testCluster struct {
	t      *testing.T
	coord  *Coordinator
	co     *httptest.Server // coordinator front door
	single *httptest.Server // single-node holding the union of all shard rows
	srv    *serve.Server    // the single node's catalog (for rebuilds)

	// Populated by newReplicatedTestCluster (failover_test.go) only:
	// per-shard primary servers (killable) and their follower loops.
	primaries []*httptest.Server
	followers []*replica.Follower

	// cold sends every query with noCache, so no shard leg reads or
	// fills a skyline memo.
	cold bool
}

// newTestCluster boots n shard servers, a coordinator over them, and a
// single-node reference server holding the identical union of rows.
func newTestCluster(t *testing.T, n int, spec serve.TableSpec) *testCluster {
	t.Helper()
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		shard := serve.NewWithConfig(serve.Config{
			CacheCapacity: 8,
			Shard:         &serve.ShardIdentity{Index: i, Count: n},
		})
		ts := httptest.NewServer(shard.Handler())
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	coord, err := New(Config{Shards: urls})
	if err != nil {
		t.Fatal(err)
	}
	co := httptest.NewServer(coord.Handler(serve.New(8).Handler()))
	t.Cleanup(co.Close)

	srv := serve.New(8)
	single := httptest.NewServer(srv.Handler())
	t.Cleanup(single.Close)

	tc := &testCluster{t: t, coord: coord, co: co, single: single, srv: srv}
	tc.postJSON(co.URL+"/tables", spec, nil, http.StatusCreated)
	tc.postJSON(single.URL+"/tables", spec, nil, http.StatusCreated)
	return tc
}

// resetSingle rebuilds the single-node reference table with new rows.
func (tc *testCluster) resetSingle(spec serve.TableSpec) {
	tc.t.Helper()
	tc.srv.DropTable(spec.Name)
	tc.postJSON(tc.single.URL+"/tables", spec, nil, http.StatusCreated)
}

func (tc *testCluster) postJSON(url string, body, out any, wantStatus int) {
	tc.t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		tc.t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		tc.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		tc.t.Fatalf("POST %s: status %d (want %d): %s", url, resp.StatusCode, wantStatus, e.Error)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			tc.t.Fatal(err)
		}
	}
}

func (tc *testCluster) query(base, table string, req serve.QueryRequest) serve.QueryResponse {
	tc.t.Helper()
	req.NoCache = req.NoCache || tc.cold
	var out serve.QueryResponse
	tc.postJSON(base+"/tables/"+table+"/query", req, &out, http.StatusOK)
	return out
}

// rowKey canonicalises a skyline row's values.
func rowKey(r *serve.SkylineRow) string {
	return fmt.Sprintf("%v|%v", r.TO, r.PO)
}

// sortedKeys renders a response's row-value multiset.
func sortedKeys(rows []serve.SkylineRow) []string {
	keys := make([]string, len(rows))
	for i := range rows {
		keys[i] = rowKey(&rows[i])
	}
	sort.Strings(keys)
	return keys
}

func equalKeys(a, b []string) bool {
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

// checkSetEqual asserts cluster and single-node answers hold the same
// row-value multiset.
func (tc *testCluster) checkSetEqual(name string, cluster, single serve.QueryResponse) {
	tc.t.Helper()
	if cluster.Count != single.Count {
		tc.t.Errorf("%s: cluster count %d, single %d", name, cluster.Count, single.Count)
	}
	ck, sk := sortedKeys(cluster.Skyline), sortedKeys(single.Skyline)
	if !equalKeys(ck, sk) {
		tc.t.Errorf("%s: value sets diverge\n cluster: %v\n single:  %v", name, ck, sk)
	}
	for i := range cluster.Skyline {
		if cluster.Skyline[i].Shard == nil {
			tc.t.Errorf("%s: cluster row %d missing shard annotation", name, i)
			break
		}
	}
}

// --- the differential sweep --------------------------------------------------

// forcedSkyline is the table's skyline with sTSS forced and the memo
// bypassed — what tssquery's bare invocation sends.
var forcedSkyline = serve.QueryRequest{Algo: "stss", NoCache: true}

// variantQueries is the PR 4 battery the tentpole must preserve across
// the distributed path.
func variantQueries() []struct {
	name string
	req  serve.QueryRequest
} {
	le := int64(400)
	return []struct {
		name string
		req  serve.QueryRequest
	}{
		{"full", serve.QueryRequest{Explain: true}},
		{"subspace-TO", serve.QueryRequest{Subspace: []string{"x", "y"}}},
		{"subspace-mixed", serve.QueryRequest{Subspace: []string{"x", "cls"}}},
		{"constrained", serve.QueryRequest{Where: []serve.WhereSpec{
			{Col: "x", Le: &le},
			{Col: "cls", In: []string{"a", "b"}},
		}}},
		{"constrained+subspace", serve.QueryRequest{
			Subspace: []string{"y", "tier"},
			Where:    []serve.WhereSpec{{Col: "x", Le: &le}},
		}},
	}
}

// TestDifferentialScatterGather is the acceptance harness: for shard
// counts N ∈ {1, 2, 4}, coordinator results are set-equal (rank-equal
// for ranked top-k, size-and-membership for unranked) to a single node
// holding the union of all shard rows — for every query variant,
// including after batch mutations routed through the coordinator.
func TestDifferentialScatterGather(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		// Maintained memo hits and cold shard legs must be
		// indistinguishable in every answer: maintenance only changes
		// whether post-batch scatter legs recompute or re-certify. The
		// maintain=false legs send every query with noCache, so no leg
		// reads or fills a memo and nothing is left to maintain.
		for _, maintain := range []bool{true, false} {
			n, maintain := n, maintain
			t.Run(fmt.Sprintf("shards=%d/maintain=%v", n, maintain), func(t *testing.T) {
				tc := newTestCluster(t, n, fixtureSpec("diff", fixtureRows(260, int64(1000+n))))
				tc.cold = !maintain
				runDifferential(t, tc, n)
			})
		}
	}
}

func runDifferential(t *testing.T, tc *testCluster, n int) {
	rows := fixtureRows(260, int64(1000+n))

	tc.sweep("initial", rows)

	// Mutations through the coordinator: remove a third of the
	// current skyline (by shard handle) and add fresh rows, then
	// rebuild the single-node union to match and re-sweep.
	full := tc.query(tc.co.URL, "diff", serve.QueryRequest{Algo: "stss"})
	var batch serve.BatchRequest
	removed := make(map[string]int)
	for i, r := range full.Skyline {
		if i%3 != 0 {
			continue
		}
		batch.RemoveSharded = append(batch.RemoveSharded,
			serve.ShardRef{Shard: *r.Shard, Row: r.Row})
		removed[rowKey(&full.Skyline[i])]++
	}
	batch.Add = fixtureRows(40, int64(7000+n))
	var bresp serve.BatchResponse
	tc.postJSON(tc.co.URL+"/tables/diff/rows:batch", batch, &bresp, http.StatusOK)
	if len(bresp.Versions) != n {
		t.Fatalf("batch version vector has %d entries, want %d", len(bresp.Versions), n)
	}
	if bresp.Removed != len(batch.RemoveSharded) || bresp.Added != len(batch.Add) {
		t.Fatalf("batch reported added=%d removed=%d, want %d/%d",
			bresp.Added, bresp.Removed, len(batch.Add), len(batch.RemoveSharded))
	}

	// Mirror the mutation on the expected union: drop one instance
	// per removed value, append the adds.
	var next []serve.RowSpec
	for _, r := range rows {
		k := fmt.Sprintf("%v|%v", r.TO, r.PO)
		if removed[k] > 0 {
			removed[k]--
			continue
		}
		next = append(next, r)
	}
	next = append(next, batch.Add...)
	tc.resetSingle(fixtureSpec("diff", next))

	tc.sweep("post-batch", next)

	// With memoised legs, the post-batch full-query scatter legs were
	// maintained memo hits; with cold legs, none were. /clusterz exposes
	// the summed shard counters either way.
	var cz ClusterzInfo
	getJSON(t, tc.co.URL+"/clusterz", &cz)
	if tc.cold {
		if cz.PlanCache.MaintainedHits != 0 || cz.PlanCache.Advances != 0 {
			t.Errorf("cold legs but /clusterz shows maintainedHits=%d advances=%d",
				cz.PlanCache.MaintainedHits, cz.PlanCache.Advances)
		}
	} else {
		if cz.PlanCache.MaintainedHits == 0 {
			t.Errorf("maintenance on but no maintained hits in /clusterz: %+v", cz.PlanCache)
		}
		if cz.PlanCache.Advances == 0 {
			t.Errorf("maintenance on but no memo advances in /clusterz: %+v", cz.PlanCache)
		}
	}
}

// sweep runs every variant against both the coordinator and the
// single-node union and compares.
func (tc *testCluster) sweep(phase string, union []serve.RowSpec) {
	tc.t.Helper()
	for _, v := range variantQueries() {
		cluster := tc.query(tc.co.URL, "diff", v.req)
		single := tc.query(tc.single.URL, "diff", v.req)
		tc.checkSetEqual(phase+"/"+v.name, cluster, single)
		if cluster.Rows != single.Rows {
			tc.t.Errorf("%s/%s: cluster sees %d rows, single %d", phase, v.name, cluster.Rows, single.Rows)
		}
	}

	// The table's skyline with the algorithm forced and a dynamic query
	// with per-request DAGs.
	tc.checkSetEqual(phase+"/skyline-forced",
		tc.query(tc.co.URL, "diff", forcedSkyline), tc.query(tc.single.URL, "diff", forcedSkyline))

	dyn := serve.QueryRequest{Orders: queryOrders}
	tc.checkSetEqual(phase+"/dynamic",
		tc.query(tc.co.URL, "diff", dyn), tc.query(tc.single.URL, "diff", dyn))

	ideal := serve.QueryRequest{Ideal: []int64{500, 500}, Orders: dyn.Orders}
	tc.checkSetEqual(phase+"/dynamic-ideal",
		tc.query(tc.co.URL, "diff", ideal), tc.query(tc.single.URL, "diff", ideal))

	// orders is a field, not a mode: beside where and subspace both
	// tiers return the brute-force skyline of the filtered rows, on the
	// kept columns, under the request's preferences.
	le := int64(400)
	composed := serve.QueryRequest{Orders: queryOrders, Subspace: []string{"x", "cls"},
		Where: []serve.WhereSpec{{Col: "x", Le: &le}}}
	single := tc.query(tc.single.URL, "diff", composed)
	tc.checkSetEqual(phase+"/dynamic-constrained-subspace", tc.query(tc.co.URL, "diff", composed), single)
	var want []string
	for i, r := range union {
		dominated := r.TO[0] > le
		for j := 0; j < len(union) && !dominated; j++ {
			o := union[j]
			dominated = o.TO[0] <= le && dominatesOracle(queryPref, o.TO[:1], o.PO[:1], r.TO[:1], r.PO[:1])
		}
		if !dominated {
			want = append(want, fmt.Sprintf("%v|%v", union[i].TO, union[i].PO))
		}
	}
	sort.Strings(want)
	if got := sortedKeys(single.Skyline); !equalKeys(got, want) {
		tc.t.Errorf("%s/dynamic-constrained-subspace: rows diverge from brute force\n got  %v\n want %v", phase, got, want)
	}

	tc.checkTopK(phase, union)
}

// checkTopK validates the distributed top-k contract: ranked variants
// are rank-equal to the single node modulo score ties (checked via
// independently computed scores), unranked top-k is a K-subset of the
// full skyline.
func (tc *testCluster) checkTopK(phase string, union []serve.RowSpec) {
	tc.t.Helper()
	const k = 7
	fullSingle := tc.query(tc.single.URL, "diff", serve.QueryRequest{Algo: "stss"})
	member := make(map[string]int)
	for i := range fullSingle.Skyline {
		member[rowKey(&fullSingle.Skyline[i])]++
	}

	// Unranked: K rows, all full-skyline members.
	un := tc.query(tc.co.URL, "diff", serve.QueryRequest{TopK: k})
	wantLen := k
	if fullSingle.Count < k {
		wantLen = fullSingle.Count
	}
	if len(un.Skyline) != wantLen {
		tc.t.Errorf("%s/topk-unranked: %d rows, want %d", phase, len(un.Skyline), wantLen)
	}
	seen := make(map[string]int)
	for i := range un.Skyline {
		key := rowKey(&un.Skyline[i])
		seen[key]++
		if seen[key] > member[key] {
			tc.t.Errorf("%s/topk-unranked: row %s not in the full skyline (or over-returned)", phase, key)
		}
	}

	// Ranked: per-score verification against an independent oracle.
	for _, rank := range []struct {
		name string
		req  serve.QueryRequest
		of   func(r *serve.SkylineRow) float64
	}{
		{"domcount", serve.QueryRequest{TopK: k, Rank: "domcount"},
			func(r *serve.SkylineRow) float64 { return -float64(domCountOracle(ownPref, union, r)) }},
		{"ideal", serve.QueryRequest{TopK: k, Rank: "ideal", Ideal: []int64{500, 500}},
			func(r *serve.SkylineRow) float64 { return idealScoreOracle(r, []int64{500, 500}) }},
	} {
		cluster := tc.query(tc.co.URL, "diff", rank.req)
		single := tc.query(tc.single.URL, "diff", rank.req)
		if len(cluster.Skyline) != len(single.Skyline) {
			tc.t.Errorf("%s/topk-%s: cluster %d rows, single %d",
				phase, rank.name, len(cluster.Skyline), len(single.Skyline))
			continue
		}
		for i := range cluster.Skyline {
			cs, ss := rank.of(&cluster.Skyline[i]), rank.of(&single.Skyline[i])
			if cs != ss {
				tc.t.Errorf("%s/topk-%s: rank %d score %v (cluster) vs %v (single) — not rank-equal",
					phase, rank.name, i, cs, ss)
			}
			if i > 0 && rank.of(&cluster.Skyline[i-1]) > cs {
				tc.t.Errorf("%s/topk-%s: cluster rank order violated at %d", phase, rank.name, i)
			}
			if member[rowKey(&cluster.Skyline[i])] == 0 {
				tc.t.Errorf("%s/topk-%s: ranked row %s not in the full skyline",
					phase, rank.name, rowKey(&cluster.Skyline[i]))
			}
		}
	}
}

// domCountOracle brute-forces a candidate's dominance count over the
// union rows (full dimensionality) under pref.
func domCountOracle(pref prefOracle, union []serve.RowSpec, c *serve.SkylineRow) int {
	count := 0
	for _, r := range union {
		if dominatesOracle(pref, c.TO, c.PO, r.TO, r.PO) {
			count++
		}
	}
	return count
}

// prefOracle is a hand-coded preference relation over the fixture's PO
// value labels: pref[v][w] means v is (transitively) preferred to w.
type prefOracle map[string]map[string]bool

// ownPref is the fixture table's own orders: diamond cls, chain tier.
var ownPref = prefOracle{
	"a": {"b": true, "c": true, "d": true},
	"b": {"d": true}, "c": {"d": true}, "d": {},
	"t1": {"t2": true, "t3": true}, "t2": {"t3": true}, "t3": {},
}

// queryOrders is the per-request DAG set the harnesses send — cls with d
// over a and b (c incomparable to everything), tier inverted — and
// queryPref its hand-derived closure.
var (
	queryOrders = []serve.QueryOrder{
		{Edges: [][2]string{{"d", "a"}, {"d", "b"}}},
		{Edges: [][2]string{{"t3", "t2"}, {"t2", "t1"}}},
	}
	queryPref = prefOracle{
		"a": {}, "b": {}, "c": {}, "d": {"a": true, "b": true},
		"t3": {"t2": true, "t1": true}, "t2": {"t1": true}, "t1": {},
	}
)

// dominatesOracle is t-dominance under pref on the given columns,
// hand-coded as an independent check.
func dominatesOracle(pref prefOracle, aTO []int64, aPO []string, bTO []int64, bPO []string) bool {
	strict := false
	for d := range aTO {
		if aTO[d] > bTO[d] {
			return false
		}
		if aTO[d] < bTO[d] {
			strict = true
		}
	}
	for d := range aPO {
		if aPO[d] == bPO[d] {
			continue
		}
		if !pref[aPO[d]][bPO[d]] {
			return false
		}
		strict = true
	}
	return strict
}

// idealScoreOracle mirrors the RankIdeal score: L1 distance to the
// ideal plus preference-DAG depth per PO value.
func idealScoreOracle(r *serve.SkylineRow, ideal []int64) float64 {
	depth := map[string]float64{
		"a": 0, "b": 1, "c": 1, "d": 3,
		"t1": 0, "t2": 1, "t3": 2,
	}
	var s float64
	for d := range r.TO {
		diff := r.TO[d] - ideal[d]
		if diff < 0 {
			diff = -diff
		}
		s += float64(diff)
	}
	for _, v := range r.PO {
		s += depth[v]
	}
	return s
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}
