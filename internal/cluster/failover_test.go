package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/replica"
	"repro/internal/serve"
	"repro/internal/store"
)

// newReplicatedTestCluster is newTestCluster plus replication: every
// shard primary is durable (Mem store, so its replication log works),
// mirrored by one read-only follower, and the coordinator is wired with
// the follower URLs and a durable catalog. Followers are synced
// manually via syncFollowers — deterministic, no polling loop.
func newReplicatedTestCluster(t *testing.T, n int, spec serve.TableSpec) *testCluster {
	t.Helper()
	urls := make([]string, n)
	replicas := make([][]string, n)
	primaries := make([]*httptest.Server, n)
	followers := make([]*replica.Follower, n)
	for i := 0; i < n; i++ {
		shard := serve.NewWithConfig(serve.Config{
			CacheCapacity: 8,
			Store:         store.NewMem(),
			Shard:         &serve.ShardIdentity{Index: i, Count: n},
		})
		ts := httptest.NewServer(shard.Handler())
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
		primaries[i] = ts

		mirror := serve.NewWithConfig(serve.Config{CacheCapacity: 8, ReadOnly: true})
		fs := httptest.NewServer(mirror.Handler())
		t.Cleanup(fs.Close)
		f, err := replica.New(replica.Config{Primary: ts.URL, Server: mirror})
		if err != nil {
			t.Fatal(err)
		}
		followers[i] = f
		replicas[i] = []string{fs.URL}
	}
	coord, err := New(Config{Shards: urls, Replicas: replicas, Catalog: store.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	co := httptest.NewServer(coord.Handler(serve.New(8).Handler()))
	t.Cleanup(co.Close)

	srv := serve.New(8)
	single := httptest.NewServer(srv.Handler())
	t.Cleanup(single.Close)

	tc := &testCluster{t: t, coord: coord, co: co, single: single, srv: srv,
		primaries: primaries, followers: followers}
	tc.postJSON(co.URL+"/tables", spec, nil, http.StatusCreated)
	tc.postJSON(single.URL+"/tables", spec, nil, http.StatusCreated)
	return tc
}

// syncFollowers runs one deterministic replication round on every
// follower; afterwards each mirror is exactly its primary's state.
func (tc *testCluster) syncFollowers() {
	tc.t.Helper()
	for i, f := range tc.followers {
		if err := f.Sync(context.Background()); err != nil {
			tc.t.Fatalf("follower %d sync: %v", i, err)
		}
	}
}

// killPrimary tears shard i's primary down the hard way: in-flight
// connections are severed first (the in-process analog of SIGKILL), so
// scatter legs see transport errors, not graceful drains.
func (tc *testCluster) killPrimary(i int) {
	tc.primaries[i].CloseClientConnections()
	tc.primaries[i].Close()
}

// TestReadFailover: with one follower per shard and shard 0's primary
// dead, every read (query variants, dynamic, forced skyline, top-k,
// streamed, table info) keeps answering — correctly, via the follower —
// while mutations, which must never fail over, surface 502.
func TestReadFailover(t *testing.T) {
	rows := fixtureRows(160, 42)
	spec := fixtureSpec("diff", rows)
	tc := newReplicatedTestCluster(t, 2, spec)
	tc.syncFollowers()

	baseline := tc.query(tc.co.URL, "diff", serve.QueryRequest{Algo: "stss"})
	if tc.coord.failovers.Load() != 0 {
		t.Fatalf("failovers counted with all primaries healthy")
	}

	tc.killPrimary(0)

	// The whole differential battery — every variant, dynamic DAGs,
	// forced skyline, ranked and unranked top-k — against the single-node
	// union, now served partly by the follower.
	tc.sweep("post-kill", rows)
	after := tc.query(tc.co.URL, "diff", serve.QueryRequest{Algo: "stss"})
	tc.checkSetEqual("post-kill/full-vs-baseline", after, baseline)
	if got := tc.coord.failovers.Load(); got == 0 {
		t.Errorf("reads succeeded with a dead primary but the failover counter is still 0")
	}

	// A streamed read fails over at leg-open time too.
	frames := streamFrames(t, tc.co.URL+"/tables/diff/query?stream=1", forcedSkyline)
	srows, _ := streamedRows(t, frames)
	want := tc.query(tc.single.URL, "diff", forcedSkyline)
	if !equalKeys(sortedKeys(srows), sortedKeys(want.Skyline)) {
		t.Errorf("post-kill streamed skyline diverges from the single-node union")
	}

	// Table info aggregates through the follower.
	var info serve.TableInfo
	getJSON(t, tc.co.URL+"/tables/diff", &info)
	if info.Rows != len(rows) {
		t.Errorf("post-kill info: %d rows, want %d", info.Rows, len(rows))
	}

	// /clusterz reports the topology: the dead primary probes -1, its
	// follower's lag is -1 (undefined without a reachable primary), the
	// live shard's lag is 0, and the failover counter is exposed.
	var cz ClusterzInfo
	getJSON(t, tc.co.URL+"/clusterz", &cz)
	if len(cz.Replicas) != 2 || len(cz.Replicas[0]) != 1 {
		t.Fatalf("clusterz replicas = %v, want one follower per shard", cz.Replicas)
	}
	if cz.Failovers == 0 {
		t.Errorf("clusterz failovers = 0 after follower-served reads")
	}
	if len(cz.Tables) != 1 {
		t.Fatalf("clusterz tables = %+v, want exactly diff", cz.Tables)
	}
	ct := cz.Tables[0]
	if len(ct.Versions) != 2 || ct.Versions[0] != -1 || ct.Versions[1] < 0 {
		t.Errorf("clusterz versions = %v, want [-1, >=0]", ct.Versions)
	}
	if len(ct.ReplicaLag) != 2 || len(ct.ReplicaLag[0]) != 1 || ct.ReplicaLag[0][0] != -1 {
		t.Errorf("clusterz replicaLag = %v, want [-1] for the dead shard", ct.ReplicaLag)
	}
	if len(ct.ReplicaLag) == 2 && len(ct.ReplicaLag[1]) == 1 && ct.ReplicaLag[1][0] != 0 {
		t.Errorf("clusterz replicaLag[1] = %v, want [0] for a synced follower", ct.ReplicaLag[1])
	}

	// Mutations never fail over: the batch hits the dead primary and
	// reports a bad-gateway dependency failure, not a silent write to
	// the read-only mirror. (Last: the live shard's leg commits — batch
	// atomicity is per shard — which would skew the lag probe above.)
	breq, _ := json.Marshal(serve.BatchRequest{Add: fixtureRows(4, 7)})
	resp, err := http.Post(tc.co.URL+"/tables/diff/rows:batch", "application/json", bytes.NewReader(breq))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("batch against a dead primary: HTTP %d, want 502", resp.StatusCode)
	}
}

// TestFailoverVersionPinning: a follower lagging behind the version a
// query's statistics pinned must answer 412, and the coordinator
// surfaces the failure rather than serving the stale mirror.
func TestFailoverVersionPinning(t *testing.T) {
	rows := fixtureRows(80, 5)
	spec := fixtureSpec("diff", rows)
	tc := newReplicatedTestCluster(t, 2, spec)
	tc.syncFollowers()

	// Advance the primaries past the mirrors: the followers stay at the
	// bootstrap version while every primary commits one more batch.
	var bresp serve.BatchResponse
	tc.postJSON(tc.co.URL+"/tables/diff/rows:batch",
		serve.BatchRequest{Add: fixtureRows(40, 6)}, &bresp, http.StatusOK)

	tc.killPrimary(0)

	// The scatter pins to the stats-fetch version. Stats now come from
	// the stale follower (version 0 for shard 0), so the query leg pins
	// to what the follower *can* serve — the result is the union at the
	// follower's snapshot, never a torn mix, and it must succeed.
	got := tc.query(tc.co.URL, "diff", serve.QueryRequest{Algo: "stss"})
	if got.Count == 0 {
		t.Fatalf("pinned failover query returned nothing")
	}

	// But a client explicitly demanding the post-batch version from the
	// dead shard's mirror gets a precondition failure, not stale data:
	// ask the follower directly for a version it does not have.
	furl := tc.coord.replicas[0][0].base
	resp, err := http.Get(fmt.Sprintf("%s/tables/diff?minVersion=%d", furl, 1))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusPreconditionFailed {
		t.Errorf("stale follower at minVersion=1: HTTP %d, want 412", resp.StatusCode)
	}
}

// TestCoordinatorCatalogRestart is the restart-era bugfix acceptance: a
// range-partitioned table's bounds survive a coordinator restart
// through the durable catalog — Adopt restores real placement instead
// of silently falling back to hash routing.
func TestCoordinatorCatalogRestart(t *testing.T) {
	const n = 2
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
	cat := store.NewMem()
	ctx := context.Background()

	co1, err := New(Config{Shards: urls, Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	spec := fixtureSpec("ranged", fixtureRows(120, 11))
	spec.Partition = &serve.PartitionSpec{By: "range", Column: "x", Bounds: []int64{500}}
	if _, err := co1.CreateTable(ctx, spec); err != nil {
		t.Fatal(err)
	}
	want := co1.table("ranged").part.spec()

	// "Restart": a fresh coordinator over the same shards and the same
	// catalog store. Adopt must come back with the range spec intact.
	co2, err := New(Config{Shards: urls, Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	adopted, err := co2.Adopt(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(adopted) != 1 || adopted[0] != "ranged" {
		t.Fatalf("adopted %v, want [ranged]", adopted)
	}
	got := co2.table("ranged").part.spec()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("adopted partition spec %+v, want %+v", got, want)
	}
	if got.By != "range" || !reflect.DeepEqual(got.Bounds, []int64{500}) {
		t.Fatalf("adopted spec lost its range bounds: %+v", got)
	}

	// Routing proof, not just metadata: a post-restart add below the
	// split point lands on shard 0.
	var before, after serve.TableInfo
	getJSON(t, urls[0]+"/tables/ranged", &before)
	if _, err := co2.Batch(ctx, co2.table("ranged"),
		serve.BatchRequest{Add: []serve.RowSpec{{TO: []int64{100, 100}, PO: []string{"a", "t1"}}}}); err != nil {
		t.Fatal(err)
	}
	getJSON(t, urls[0]+"/tables/ranged", &after)
	if after.Rows != before.Rows+1 {
		t.Errorf("post-restart add below the bound: shard 0 grew %d→%d rows, want +1 (hash fallback?)",
			before.Rows, after.Rows)
	}

	// A coordinator with a different shard count must refuse the catalog
	// outright — adopting 2-shard placement onto 1 shard is corruption.
	if _, err := New(Config{Shards: urls[:1], Catalog: cat}); err == nil {
		t.Errorf("New accepted a catalog recorded for %d shards on a 1-shard cluster", n)
	}

	// And without a durable catalog, range-partitioned creates are
	// refused up front — the spec would be unrecoverable.
	co3, err := New(Config{Shards: urls})
	if err != nil {
		t.Fatal(err)
	}
	spec2 := fixtureSpec("ranged2", fixtureRows(40, 12))
	spec2.Partition = &serve.PartitionSpec{By: "range", Bounds: []int64{500}}
	if _, err := co3.CreateTable(ctx, spec2); err == nil {
		t.Errorf("catalog-less coordinator accepted a range-partitioned create")
	}
}

// TestDifferentialKillPrimaryMidWorkload is the satellite harness case:
// SIGKILL (in-process: sever all connections) one shard primary while a
// mixed buffered+streamed read workload is in flight. The contract is
// zero wrong answers — every response that arrives is set-equal to the
// single-node union — with a bounded number of failed queries, and a
// fully clean differential sweep once the failover has settled.
func TestDifferentialKillPrimaryMidWorkload(t *testing.T) {
	rows := fixtureRows(240, 99)
	spec := fixtureSpec("diff", rows)
	tc := newReplicatedTestCluster(t, 2, spec)

	// Mutation phase while everything is healthy: remove a slice of the
	// skyline, add fresh rows, mirror the union, then sync the mirrors
	// so the followers hold the exact pre-kill state.
	full := tc.query(tc.co.URL, "diff", serve.QueryRequest{Algo: "stss"})
	var batch serve.BatchRequest
	removed := make(map[string]int)
	for i, r := range full.Skyline {
		if i%4 != 0 {
			continue
		}
		batch.RemoveSharded = append(batch.RemoveSharded,
			serve.ShardRef{Shard: *r.Shard, Row: r.Row})
		removed[rowKey(&full.Skyline[i])]++
	}
	batch.Add = fixtureRows(30, 123)
	tc.postJSON(tc.co.URL+"/tables/diff/rows:batch", batch, nil, http.StatusOK)
	var union []serve.RowSpec
	for _, r := range rows {
		k := fmt.Sprintf("%v|%v", r.TO, r.PO)
		if removed[k] > 0 {
			removed[k]--
			continue
		}
		union = append(union, r)
	}
	union = append(union, batch.Add...)
	tc.resetSingle(fixtureSpec("diff", union))
	tc.syncFollowers()

	// Expected answers, computed once from the single-node union.
	expected := make(map[string][]string)
	for _, v := range variantQueries() {
		resp := tc.query(tc.single.URL, "diff", v.req)
		expected[v.name] = sortedKeys(resp.Skyline)
	}
	skyKeys := sortedKeys(tc.query(tc.single.URL, "diff", forcedSkyline).Skyline)

	// The workload: 4 clients looping the variant battery plus a
	// streamed forced skyline, racing the kill. Failures (a leg severed
	// mid-body) are counted and bounded; wrong answers are test errors.
	var okCount, failed, wrong atomic.Int64
	checkKeys := func(name string, got, want []string) {
		if !equalKeys(got, want) {
			wrong.Add(1)
			t.Errorf("mid-kill %s: wrong answer\n got:  %v\n want: %v", name, got, want)
		} else {
			okCount.Add(1)
		}
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for round := 0; round < 5; round++ {
				for _, v := range variantQueries() {
					body, _ := json.Marshal(v.req)
					resp, err := http.Post(tc.co.URL+"/tables/diff/query", "application/json", bytes.NewReader(body))
					if err != nil {
						failed.Add(1)
						continue
					}
					var out serve.QueryResponse
					decErr := json.NewDecoder(resp.Body).Decode(&out)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK || decErr != nil {
						failed.Add(1)
						continue
					}
					checkKeys(v.name, sortedKeys(out.Skyline), expected[v.name])
				}
				// One streamed read per round: mid-body kills may end in an
				// error frame (a failed query); a trailer means the stream
				// completed and must carry the exact skyline.
				srows, done := streamQuietly(tc.co.URL + "/tables/diff/query?stream=1")
				if !done {
					failed.Add(1)
					continue
				}
				checkKeys("skyline-stream", sortedKeys(srows), skyKeys)
			}
		}()
	}
	close(start)
	tc.killPrimary(0)
	wg.Wait()

	total := okCount.Load() + failed.Load() + wrong.Load()
	if wrong.Load() != 0 {
		t.Fatalf("%d wrong answers out of %d mid-kill queries — failover must never trade correctness", wrong.Load(), total)
	}
	if okCount.Load() == 0 {
		t.Fatalf("no query succeeded across the kill window (%d failed)", failed.Load())
	}
	if failed.Load() > total/2 {
		t.Errorf("%d of %d mid-kill queries failed — failover should bound the blast radius", failed.Load(), total)
	}

	// Settled state: the full differential battery is clean with the
	// primary still dead — the follower carries its shard exactly.
	tc.sweep("post-kill", union)
	if tc.coord.failovers.Load() == 0 {
		t.Errorf("kill test ran without a single counted failover")
	}
}

// streamQuietly consumes one NDJSON stream without failing the test on
// transport errors: done=false reports any outcome other than a clean
// header→rows→trailer envelope. The query is forcedSkyline.
func streamQuietly(url string) (rows []serve.SkylineRow, done bool) {
	buf, _ := json.Marshal(forcedSkyline)
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, false
	}
	dec := json.NewDecoder(resp.Body)
	sawTrailer := false
	for {
		var rec serve.StreamRecord
		if err := dec.Decode(&rec); err != nil {
			return rows, sawTrailer
		}
		switch rec.Type {
		case "row":
			if rec.Row != nil {
				rows = append(rows, *rec.Row)
			}
		case "trailer":
			sawTrailer = true
		case "error":
			return rows, false
		}
	}
}
