package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestClusterIntegration is the end-to-end multi-process test behind
// the CI cluster job: real tssserve binaries — two shard nodes, one
// coordinator, one single-node reference — a generated table loaded
// through the coordinator, and scatter/gather results asserted equal
// to the single node for all four query variants, before and after a
// batch mutation routed through the coordinator.
func TestClusterIntegration(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("process signalling differs on windows")
	}
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := filepath.Join(t.TempDir(), "tssserve")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	start := func(args ...string) (*exec.Cmd, string) {
		t.Helper()
		addr := fmt.Sprintf("127.0.0.1:%d", freePort(t))
		cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			cmd.Process.Signal(syscall.SIGTERM)
			cmd.Wait()
		})
		waitHealthy(t, "http://"+addr)
		return cmd, "http://" + addr
	}

	_, shard0 := start("-shard-of", "0/2")
	_, shard1 := start("-shard-of", "1/2")
	_, coord := start("-coordinator", shard0+","+shard1)
	_, single := start()

	// A generated mixed TO/PO table, loaded through the coordinator
	// (hash-partitioned) and verbatim into the single node.
	rng := rand.New(rand.NewSource(42))
	spec := serve.TableSpec{
		Name:      "it",
		TOColumns: []string{"x", "y"},
		Orders: []serve.OrderSpec{{
			Name:   "cls",
			Values: []string{"a", "b", "c", "d"},
			Edges:  [][2]string{{"a", "b"}, {"a", "c"}, {"b", "d"}, {"c", "d"}},
		}},
	}
	for i := 0; i < 150; i++ {
		spec.Rows = append(spec.Rows, serve.RowSpec{
			TO: []int64{int64(rng.Intn(500)), int64(rng.Intn(500))},
			PO: []string{spec.Orders[0].Values[rng.Intn(4)]},
		})
	}
	postJSON(t, coord+"/tables", spec, nil)
	postJSON(t, single+"/tables", spec, nil)

	le := int64(200)
	variants := []struct {
		name string
		req  serve.QueryRequest
	}{
		{"full", serve.QueryRequest{Explain: true}},
		{"subspace", serve.QueryRequest{Subspace: []string{"x", "cls"}}},
		{"constrained", serve.QueryRequest{Where: []serve.WhereSpec{{Col: "x", Le: &le}}}},
		{"topk", serve.QueryRequest{TopK: 5, Rank: "ideal", Ideal: []int64{250, 250}}},
	}
	sweep := func(phase string) {
		t.Helper()
		for _, v := range variants {
			var c, s serve.QueryResponse
			postJSON(t, coord+"/tables/it/query", v.req, &c)
			postJSON(t, single+"/tables/it/query", v.req, &s)
			if c.Count != s.Count {
				t.Fatalf("%s/%s: coordinator count %d, single %d", phase, v.name, c.Count, s.Count)
			}
			ck, sk := valueKeys(c.Skyline), valueKeys(s.Skyline)
			for i := range ck {
				if ck[i] != sk[i] {
					t.Fatalf("%s/%s: results diverge:\n coord:  %v\n single: %v", phase, v.name, ck, sk)
				}
			}
			if c.Cluster == nil || c.Cluster.Shards != 2 || len(c.Cluster.Versions) != 2 {
				t.Fatalf("%s/%s: missing/short cluster metadata: %+v", phase, v.name, c.Cluster)
			}
		}
	}
	sweep("initial")

	// Mutation through the coordinator: remove two skyline rows by
	// shard handle, add two fresh rows; mirror on the single node by
	// matching values.
	var full serve.QueryResponse
	postJSON(t, coord+"/tables/it/query", serve.QueryRequest{Algo: "stss"}, &full)
	if len(full.Skyline) < 2 {
		t.Fatalf("skyline too small to mutate: %d", len(full.Skyline))
	}
	batch := serve.BatchRequest{Add: []serve.RowSpec{
		{TO: []int64{1, 499}, PO: []string{"d"}},
		{TO: []int64{499, 1}, PO: []string{"a"}},
	}}
	removedKeys := map[string]int{}
	for _, r := range full.Skyline[:2] {
		batch.RemoveSharded = append(batch.RemoveSharded, serve.ShardRef{Shard: *r.Shard, Row: r.Row})
		removedKeys[fmt.Sprintf("%v|%v", r.TO, r.PO)]++
	}
	var bresp serve.BatchResponse
	postJSON(t, coord+"/tables/it/rows:batch", batch, &bresp)
	if len(bresp.Versions) != 2 || bresp.Removed != 2 || bresp.Added != 2 {
		t.Fatalf("coordinator batch response %+v", bresp)
	}

	// Single node: find the same rows by value and remove by index.
	next := spec
	next.Rows = nil
	for _, r := range spec.Rows {
		k := fmt.Sprintf("%v|%v", r.TO, r.PO)
		if removedKeys[k] > 0 {
			removedKeys[k]--
			continue
		}
		next.Rows = append(next.Rows, r)
	}
	next.Rows = append(next.Rows, batch.Add...)
	deleteTable(t, single+"/tables/it")
	postJSON(t, single+"/tables", next, nil)

	sweep("post-batch")
}

// waitHealthy blocks until the server's /healthz answers.
func waitHealthy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("server %s never became healthy", base)
}

func deleteTable(t *testing.T, url string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		t.Fatalf("DELETE %s: HTTP %d", url, resp.StatusCode)
	}
}

func valueKeys(rows []serve.SkylineRow) []string {
	keys := make([]string, len(rows))
	for i := range rows {
		keys[i] = fmt.Sprintf("%v|%v", rows[i].TO, rows[i].PO)
	}
	sort.Strings(keys)
	return keys
}

// TestClusterIntegrationSlowShard is the progressive-delivery half of
// the cluster job: a 2-shard range-partitioned cluster where one shard
// answers queries through a delaying proxy. The streamed merge must
// certify and deliver the fast shard's rows — whose TO values the slow
// shard's statistics min-corner provably cannot dominate — before the
// slow shard responds at all, and the trailer must still carry the
// complete 2-entry version vector.
func TestClusterIntegrationSlowShard(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("process signalling differs on windows")
	}
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := filepath.Join(t.TempDir(), "tssserve")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	start := func(args ...string) string {
		t.Helper()
		addr := fmt.Sprintf("127.0.0.1:%d", freePort(t))
		cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			cmd.Process.Signal(syscall.SIGTERM)
			cmd.Wait()
		})
		waitHealthy(t, "http://"+addr)
		return "http://" + addr
	}

	shard0 := start("-shard-of", "0/2")
	shard1 := start("-shard-of", "1/2")

	// The proxy delays only query traffic to shard 1; table
	// management and statistics pass straight through, so the slowness
	// hits exactly the scatter leg. forwarded records when the delayed
	// response actually left for the coordinator.
	const delay = 1500 * time.Millisecond
	var forwarded atomic.Int64
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/query") {
			time.Sleep(delay)
			forwarded.Store(time.Now().UnixNano())
		}
		req, err := http.NewRequestWithContext(r.Context(), r.Method, shard1+r.URL.RequestURI(), r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		req.Header = r.Header.Clone()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			if n > 0 {
				if _, werr := w.Write(buf[:n]); werr != nil {
					return
				}
				if f, ok := w.(http.Flusher); ok {
					f.Flush()
				}
			}
			if err != nil {
				return
			}
		}
	}))
	t.Cleanup(proxy.Close)

	// Range-partitioned creates need a durable coordinator catalog.
	coord := start("-coordinator", shard0+","+proxy.URL, "-data-dir", filepath.Join(t.TempDir(), "co"))

	// Anti-correlated rows (x+y constant: every row is in the skyline),
	// range-partitioned on x at 500: shard 0 serves x < 500 and shard
	// 1's statistics min-corner has x ≥ 500, so no shard-0 row can ever
	// be dominated by an unseen shard-1 row — each one certifies the
	// moment shard 0 streams it.
	spec := serve.TableSpec{
		Name:      "slow",
		TOColumns: []string{"x", "y"},
		Partition: &serve.PartitionSpec{By: "range", Column: "x", Bounds: []int64{500}},
	}
	for i := 0; i < 200; i++ {
		x := int64(i * 5)
		spec.Rows = append(spec.Rows, serve.RowSpec{TO: []int64{x, 1000 - x}})
	}
	postJSON(t, coord+"/tables", spec, nil)

	// One add per shard bumps both shard versions past zero, so the
	// trailer's version-vector completeness check below has teeth (a
	// never-mutated table reports version 0 everywhere).
	batch := serve.BatchRequest{Add: []serve.RowSpec{
		{TO: []int64{3, 997}}, {TO: []int64{997, 3}},
	}}
	postJSON(t, coord+"/tables/slow/rows:batch", batch, nil)

	var info serve.TableInfo
	getJSON(t, coord+"/tables/slow", &info)
	if info.Version == 0 {
		t.Fatal("batch did not advance the cluster version")
	}

	const k = 5
	t0 := time.Now()
	buf, err := json.Marshal(forcedSkyline)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(coord+"/tables/slow/query?stream=1", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("streamed skyline: HTTP %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	var kthAt time.Duration
	rows, trailerSeen := 0, false
	var trailer serve.StreamRecord
	for {
		var rec serve.StreamRecord
		if err := dec.Decode(&rec); err != nil {
			break
		}
		switch rec.Type {
		case "row":
			rows++
			if rows == k {
				kthAt = time.Since(t0)
				if forwarded.Load() != 0 {
					t.Fatalf("slow shard had already responded when row %d arrived (%.0fms)", k, kthAt.Seconds()*1000)
				}
			}
			if rec.Row == nil || rec.Row.Shard == nil {
				t.Fatalf("row %d missing payload or shard annotation", rows)
			}
			if rows <= k && *rec.Row.Shard != 0 {
				t.Fatalf("early row %d came from shard %d, want the fast shard", rows, *rec.Row.Shard)
			}
		case "error":
			t.Fatalf("stream error: %s", rec.Error)
		case "trailer":
			trailerSeen = true
			trailer = rec
		}
	}
	if !trailerSeen {
		t.Fatal("stream ended without a trailer")
	}
	if rows != 202 || trailer.Count != 202 {
		t.Fatalf("streamed %d rows, trailer count %d, want 202", rows, trailer.Count)
	}
	if kthAt >= delay {
		t.Fatalf("row %d arrived after %.0fms — no earlier than the slow shard's response", k, kthAt.Seconds()*1000)
	}
	if forwarded.Load() == 0 {
		t.Fatal("proxy never forwarded the slow leg — the stream cannot have exercised the merge")
	}
	if trailer.Cluster == nil || trailer.Cluster.Shards != 2 || len(trailer.Cluster.Versions) != 2 {
		t.Fatalf("trailer cluster metadata %+v, want a complete 2-shard version vector", trailer.Cluster)
	}
	var sum int64
	for _, v := range trailer.Cluster.Versions {
		if v == 0 {
			t.Fatalf("trailer version vector %v has an empty entry", trailer.Cluster.Versions)
		}
		sum += v
	}
	if sum != info.Version {
		t.Fatalf("trailer version vector sums to %d, table info says %d", sum, info.Version)
	}
}
