package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/serve"
)

// newCountedCluster is newTestCluster with a counter in front of every
// shard: legs[i] counts the /query and /domcount requests shard i
// answers. It also returns the shard base URLs, for writes that bypass
// the coordinator.
func newCountedCluster(t *testing.T, n int, spec serve.TableSpec) (*testCluster, []*atomic.Int64, []string) {
	t.Helper()
	var legs []*atomic.Int64
	tc := newWrappedCluster(t, n, spec, func(h http.Handler) http.Handler {
		c := new(atomic.Int64)
		legs = append(legs, c)
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/query") || strings.HasSuffix(r.URL.Path, "/domcount") {
				c.Add(1)
			}
			h.ServeHTTP(w, r)
		})
	})
	return tc, legs, shardURLs(tc.coord)
}

// sumLegs is the number of legs every shard has answered so far.
func sumLegs(legs []*atomic.Int64) int64 {
	var n int64
	for _, c := range legs {
		n += c.Load()
	}
	return n
}

// askCounted sends req through the coordinator and returns the answer
// with the legs it cost.
func askCounted(tc *testCluster, legs []*atomic.Int64, path string, req serve.QueryRequest) (serve.QueryResponse, int64) {
	tc.t.Helper()
	before := sumLegs(legs)
	var out serve.QueryResponse
	tc.postJSON(tc.co.URL+path, req, &out, http.StatusOK)
	return out, sumLegs(legs) - before
}

// sameAnswer asserts that a memo hit delivered what the miss that
// filled its entry delivered: the rows with their shard handles, the
// counts, the version vector and the pruned shards.
func sameAnswer(t *testing.T, name string, hit, miss serve.QueryResponse) {
	t.Helper()
	if !reflect.DeepEqual(hit.Skyline, miss.Skyline) || hit.Count != miss.Count || hit.Rows != miss.Rows ||
		hit.Version != miss.Version || !reflect.DeepEqual(hit.Cluster, miss.Cluster) {
		t.Errorf("%s: the hit's answer differs from the miss's\n hit:  count=%d rows=%d version=%d %+v\n miss: count=%d rows=%d version=%d %+v",
			name, hit.Count, hit.Rows, hit.Version, hit.Cluster, miss.Count, miss.Rows, miss.Version, miss.Cluster)
	}
	if !hit.CacheHit || hit.Metrics.Shards != 0 {
		t.Errorf("%s: hit reports cacheHit=%v and %d shards' metrics, want true and none", name, hit.CacheHit, hit.Metrics.Shards)
	}
}

// TestCoordinatorMemoSoundness: a repeated buffered read whose shards
// still report the ETags it was merged under sends no query or
// /domcount leg and answers what the miss answered; any write — through
// the coordinator or straight to a shard — a drop and recreate at the
// same version, a noCache request or a failover sends legs again, and
// every answer matches a single node holding the union of the rows.
func TestCoordinatorMemoSoundness(t *testing.T) {
	rows := fixtureRows(260, 44)
	le := int64(400)
	reads := []struct {
		name string
		req  serve.QueryRequest
	}{
		{"full", serve.QueryRequest{}},
		{"constrained", serve.QueryRequest{Where: []serve.WhereSpec{{Col: "x", Le: &le}, {Col: "cls", In: []string{"a", "b"}}}}},
		{"topk-dpidp", serve.QueryRequest{TopK: 7, Rank: "dpidp"}},
	}

	t.Run("repeat", func(t *testing.T) {
		tc, legs, _ := newCountedCluster(t, 2, fixtureSpec("diff", rows))
		scores := dpidpOracle(ownPref, rows)
		for _, rd := range reads {
			miss, n := askCounted(tc, legs, "/tables/diff/query", rd.req)
			if n == 0 {
				t.Fatalf("%s: a cold read sent no leg", rd.name)
			}
			hit, n := askCounted(tc, legs, "/tables/diff/query", rd.req)
			if n != 0 {
				t.Errorf("%s: a repeated read sent %d legs, want 0", rd.name, n)
			}
			sameAnswer(t, rd.name, hit, miss)
			single := tc.query(tc.single.URL, "diff", rd.req)
			if rd.req.Rank == "" {
				tc.checkSetEqual(rd.name, hit, single)
				continue
			}
			if len(hit.Skyline) != len(single.Skyline) {
				t.Fatalf("%s: %d rows, single node %d", rd.name, len(hit.Skyline), len(single.Skyline))
			}
			for i := range hit.Skyline {
				if c, s := scores[rowKey(&hit.Skyline[i])], scores[rowKey(&single.Skyline[i])]; c != s {
					t.Errorf("%s: rank %d scores %v, single node %v", rd.name, i, c, s)
				}
			}
		}
		var cz ClusterzInfo
		getJSON(t, tc.co.URL+"/clusterz", &cz)
		if cz.MemoHits != int64(len(reads)) || cz.MemoMisses != int64(len(reads)) {
			t.Errorf("clusterz memoHits=%d memoMisses=%d, want %d each", cz.MemoHits, cz.MemoMisses, len(reads))
		}
	})

	t.Run("limit-and-explain-share-an-entry", func(t *testing.T) {
		tc, legs, _ := newCountedCluster(t, 2, fixtureSpec("diff", rows))
		full, _ := askCounted(tc, legs, "/tables/diff/query", serve.QueryRequest{})
		for _, v := range []struct {
			name  string
			path  string
			req   serve.QueryRequest
			limit int
		}{
			{"limit", "/tables/diff/query", serve.QueryRequest{Limit: 3}, 3},
			{"?limit", "/tables/diff/query?limit=2", serve.QueryRequest{}, 2},
			{"explain", "/tables/diff/query", serve.QueryRequest{Explain: true}, 0},
		} {
			got, n := askCounted(tc, legs, v.path, v.req)
			if n != 0 {
				t.Errorf("%s: sent %d legs, want 0", v.name, n)
			}
			want := full.Skyline
			if v.limit > 0 {
				want = want[:v.limit]
			}
			if !reflect.DeepEqual(got.Skyline, want) || got.Count != full.Count {
				t.Errorf("%s: %d rows of %d, want the first %d of the full answer's %d", v.name, len(got.Skyline), got.Count, len(want), full.Count)
			}
			if v.req.Explain && (got.Plan == nil || !got.Plan.CacheHit || !strings.Contains(got.Plan.RouteReason, "revalidated")) {
				t.Errorf("%s: plan %+v, want a cache hit revalidated against the shards' ETags", v.name, got.Plan)
			}
		}
	})

	t.Run("batch-through-coordinator", func(t *testing.T) {
		tc, legs, _ := newCountedCluster(t, 2, fixtureSpec("diff", rows))
		askCounted(tc, legs, "/tables/diff/query", serve.QueryRequest{})
		add := fixtureRows(30, 45)
		tc.postJSON(tc.co.URL+"/tables/diff/rows:batch", serve.BatchRequest{Add: add}, nil, http.StatusOK)
		tc.resetSingle(fixtureSpec("diff", append(append([]serve.RowSpec(nil), rows...), add...)))
		got, n := askCounted(tc, legs, "/tables/diff/query", serve.QueryRequest{})
		if n == 0 {
			t.Errorf("the read after a batch sent no leg")
		}
		tc.checkSetEqual("post-batch", got, tc.query(tc.single.URL, "diff", serve.QueryRequest{}))
	})

	t.Run("batch-straight-to-a-shard", func(t *testing.T) {
		tc, legs, shards := newCountedCluster(t, 2, fixtureSpec("diff", rows))
		askCounted(tc, legs, "/tables/diff/query", serve.QueryRequest{})
		add := []serve.RowSpec{{TO: []int64{0, 0}, PO: []string{"a", "t1"}}}
		tc.postJSON(shards[0]+"/tables/diff/rows:batch", serve.BatchRequest{Add: add}, nil, http.StatusOK)
		tc.resetSingle(fixtureSpec("diff", append(append([]serve.RowSpec(nil), rows...), add...)))
		got, n := askCounted(tc, legs, "/tables/diff/query", serve.QueryRequest{})
		if n == 0 {
			t.Errorf("the read after a batch sent straight to shard 0 sent no leg")
		}
		tc.checkSetEqual("post-direct-batch", got, tc.query(tc.single.URL, "diff", serve.QueryRequest{}))
	})

	t.Run("recreate-at-the-same-version", func(t *testing.T) {
		tc, legs, shards := newCountedCluster(t, 2, fixtureSpec("diff", rows))
		askCounted(tc, legs, "/tables/diff/query", serve.QueryRequest{})
		// Shard 0 drops its table and creates it again with other rows:
		// version 0 both times, only the table entry's epoch differs.
		req, err := http.NewRequest(http.MethodDelete, shards[0]+"/tables/diff", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("drop on shard 0: HTTP %d", resp.StatusCode)
		}
		part := tc.coord.table("diff").part
		union := fixtureRows(80, 46)
		for _, r := range rows {
			if part.route(r) == 1 {
				union = append(union, r)
			}
		}
		tc.postJSON(shards[0]+"/tables", fixtureSpec("diff", fixtureRows(80, 46)), nil, http.StatusCreated)
		tc.resetSingle(fixtureSpec("diff", union))
		got, n := askCounted(tc, legs, "/tables/diff/query", serve.QueryRequest{})
		if n == 0 {
			t.Errorf("the read after shard 0 recreated its table sent no leg")
		}
		if got.Cluster == nil || got.Cluster.Versions[0] != 0 {
			t.Fatalf("recreated shard at version %v, want 0", got.Cluster)
		}
		tc.checkSetEqual("post-recreate", got, tc.query(tc.single.URL, "diff", serve.QueryRequest{}))
	})

	t.Run("noCache", func(t *testing.T) {
		tc, legs, _ := newCountedCluster(t, 2, fixtureSpec("diff", rows))
		askCounted(tc, legs, "/tables/diff/query", serve.QueryRequest{})
		for i := range 2 {
			got, n := askCounted(tc, legs, "/tables/diff/query", serve.QueryRequest{NoCache: true})
			if n == 0 {
				t.Errorf("noCache read %d sent no leg", i)
			}
			tc.checkSetEqual("noCache", got, tc.query(tc.single.URL, "diff", serve.QueryRequest{}))
		}
	})

	t.Run("leg-from-another-snapshot", func(t *testing.T) {
		// Shard 0's primary stops answering /stats (its connection is
		// cut), so its statistics come from the follower while its query
		// leg still reaches the primary: the leg's ETag is not the one
		// the statistics carried, and the merged answer must not be
		// stored under the follower's tag.
		tc := newReplicatedTestCluster(t, 2, fixtureSpec("diff", rows))
		tc.syncFollowers()
		var cutStats atomic.Bool
		legs := new(atomic.Int64)
		primary := httputil.NewSingleHostReverseProxy(mustURL(t, tc.primaries[0].URL))
		proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if cutStats.Load() && strings.HasSuffix(r.URL.Path, "/stats") {
				conn, _, err := http.NewResponseController(w).Hijack()
				if err == nil {
					conn.Close()
				}
				return
			}
			if strings.HasSuffix(r.URL.Path, "/query") {
				legs.Add(1)
			}
			primary.ServeHTTP(w, r)
		}))
		t.Cleanup(proxy.Close)
		coord, err := New(Config{
			Shards:   []string{proxy.URL, tc.primaries[1].URL},
			Replicas: [][]string{{tc.coord.replicas[0][0].base}, {tc.coord.replicas[1][0].base}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := coord.Adopt(context.Background()); err != nil {
			t.Fatal(err)
		}
		front := httptest.NewServer(coord.Handler(serve.New(8).Handler()))
		t.Cleanup(front.Close)
		want := tc.query(tc.single.URL, "diff", serve.QueryRequest{})
		for i, cut := range []bool{false, false, true, true, true} {
			cutStats.Store(cut)
			before := legs.Load()
			got := tc.query(front.URL, "diff", serve.QueryRequest{})
			tc.checkSetEqual(fmt.Sprintf("read %d", i), got, want)
			sent := legs.Load() - before
			switch {
			case i == 1 && sent != 0:
				t.Errorf("read %d: a repeated read sent %d legs to shard 0", i, sent)
			case cut && sent == 0:
				t.Errorf("read %d: served from an answer merged from another snapshot than shard 0's statistics named", i)
			}
		}
	})

	t.Run("failover", func(t *testing.T) {
		tc := newReplicatedTestCluster(t, 2, fixtureSpec("diff", rows))
		tc.syncFollowers()
		want := tc.query(tc.single.URL, "diff", serve.QueryRequest{})
		tc.checkSetEqual("primaries", tc.query(tc.co.URL, "diff", serve.QueryRequest{}), want)
		tc.killPrimary(0)
		misses := tc.coord.memoMisses.Load()
		for i := range 2 {
			tc.checkSetEqual(fmt.Sprintf("follower read %d", i), tc.query(tc.co.URL, "diff", serve.QueryRequest{}), want)
		}
		if tc.coord.memoMisses.Load() == misses {
			t.Errorf("reads through a follower hit the entry merged from its primary")
		}
		if tc.coord.failovers.Load() == 0 {
			t.Errorf("no read failed over")
		}
	})
}

// TestCoordinatorMemoRankSpelling: a ranking's name matches in any
// case, and every spelling names one memo entry — a top-k sent as
// "DPIDP" and then as "dpidp" (likewise "LAYER", whose legs carry the
// rank) is one miss and one hit that sends no leg.
func TestCoordinatorMemoRankSpelling(t *testing.T) {
	tc, legs, _ := newCountedCluster(t, 2, fixtureSpec("diff", fixtureRows(260, 44)))
	for i, spell := range [][2]string{{"DPIDP", "dpidp"}, {"LAYER", "layer"}} {
		miss, n := askCounted(tc, legs, "/tables/diff/query", serve.QueryRequest{TopK: 3, Rank: spell[0]})
		if n == 0 {
			t.Fatalf("%s: a cold read sent no leg", spell[0])
		}
		hit, n := askCounted(tc, legs, "/tables/diff/query", serve.QueryRequest{TopK: 3, Rank: spell[1]})
		if n != 0 {
			t.Errorf("%s after %s: sent %d legs, want 0", spell[1], spell[0], n)
		}
		sameAnswer(t, spell[1], hit, miss)
		var cz ClusterzInfo
		getJSON(t, tc.co.URL+"/clusterz", &cz)
		if want := int64(i + 1); cz.MemoHits != want || cz.MemoMisses != want {
			t.Errorf("%s after %s: clusterz memoHits=%d memoMisses=%d, want %d each", spell[1], spell[0], cz.MemoHits, cz.MemoMisses, want)
		}
	}
}

// TestCoordinatorMemoBounds: the memo holds one ETag vector's entries,
// at most memoCap of them.
func TestCoordinatorMemoBounds(t *testing.T) {
	var m memo
	a, b := []string{`"1.0"`, `"2.0"`}, []string{`"1.1"`, `"2.0"`}
	for i := range memoCap + 8 {
		m.put(a, fmt.Sprint(i), &gathered{})
	}
	if len(m.entries) != memoCap {
		t.Fatalf("%d entries, cap %d", len(m.entries), memoCap)
	}
	if m.get(a, fmt.Sprint(memoCap+7)) == nil {
		t.Fatalf("the newest entry was evicted")
	}
	if m.get(b, "0") != nil || len(m.entries) != 0 {
		t.Fatalf("another vector did not clear the memo: %d entries", len(m.entries))
	}
	m.put(b, "x", &gathered{})
	if m.get(a, "x") != nil {
		t.Fatalf("an entry was served under another vector")
	}
}

// TestCoordinatorMemoConcurrent: readers share one table's memo while a
// writer moves the shards' ETags under them. The writer adds only rows
// that an existing row dominates, so every answer — hit, miss or a miss
// that raced a write — must equal the single node's.
func TestCoordinatorMemoConcurrent(t *testing.T) {
	rows := fixtureRows(200, 47)
	tc, _, shards := newCountedCluster(t, 2, fixtureSpec("diff", rows))
	le := int64(400)
	reqs := []serve.QueryRequest{{}, {Where: []serve.WhereSpec{{Col: "x", Le: &le}}}, {Limit: 4}}
	want := make([][]string, len(reqs))
	for i, req := range reqs {
		req.Limit = 0
		want[i] = sortedKeys(tc.query(tc.single.URL, "diff", req).Skyline)
	}
	post := func(url string, body, out any) error {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("POST %s: HTTP %d", url, resp.StatusCode)
		}
		if out == nil {
			return nil
		}
		return json.NewDecoder(resp.Body).Decode(out)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range 20 {
			r := rows[i]
			worse := serve.RowSpec{TO: []int64{r.TO[0] + 1, r.TO[1] + 1}, PO: r.PO}
			if err := post(shards[i%2]+"/tables/diff/rows:batch", serve.BatchRequest{Add: []serve.RowSpec{worse}}, nil); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 30 {
				k := (g + i) % len(reqs)
				var got serve.QueryResponse
				if err := post(tc.co.URL+"/tables/diff/query", reqs[k], &got); err != nil {
					t.Error(err)
					return
				}
				keys := sortedKeys(got.Skyline)
				if reqs[k].Limit > 0 {
					if len(keys) != min(reqs[k].Limit, len(want[k])) || got.Count != len(want[k]) || !isSubMultiset(keys, want[k]) {
						t.Errorf("reader %d, limit read %d: %d rows of %d, want %d of the skyline's %d", g, i, len(keys), got.Count, reqs[k].Limit, len(want[k]))
					}
					continue
				}
				if !equalKeys(keys, want[k]) {
					t.Errorf("reader %d, read %d (shape %d): answer diverges from the single node", g, i, k)
				}
			}
		}()
	}
	wg.Wait()
}

func mustURL(t *testing.T, raw string) *url.URL {
	t.Helper()
	u, err := url.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	return u
}
