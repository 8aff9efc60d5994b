package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// checkGoroutines fails t unless, once t's servers are closed (cleanups
// registered later run first), the goroutine count returns to its value
// at the call within a bounded wait: no leg, drain or handler goroutine
// of a stream outlives the test.
func checkGoroutines(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(10 * time.Second)
		for {
			http.DefaultTransport.(*http.Transport).CloseIdleConnections()
			n := runtime.NumGoroutine()
			if n <= before {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Errorf("%d goroutines after the test, %d before:\n%s", n, before, buf[:runtime.Stack(buf, true)])
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// streamFrames issues one streamed request against base and decodes
// every NDJSON frame.
func streamFrames(t *testing.T, url string, body any) []serve.StreamRecord {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		t.Fatalf("POST %s: HTTP %d: %s", url, resp.StatusCode, msg)
	}
	var recs []serve.StreamRecord
	dec := json.NewDecoder(resp.Body)
	for {
		var rec serve.StreamRecord
		if err := dec.Decode(&rec); err == io.EOF {
			return recs
		} else if err != nil {
			t.Fatalf("decode frame %d: %v", len(recs), err)
		}
		recs = append(recs, rec)
	}
}

// streamedRows splits a frame sequence into its row payloads and the
// trailer, requiring a clean header → rows → trailer envelope.
func streamedRows(t *testing.T, recs []serve.StreamRecord) ([]serve.SkylineRow, serve.StreamRecord) {
	t.Helper()
	if len(recs) < 2 || recs[0].Type != "header" {
		t.Fatalf("stream did not start with a header (%d frames)", len(recs))
	}
	last := recs[len(recs)-1]
	if last.Type != "trailer" {
		t.Fatalf("stream ended with %q (%s), want trailer", last.Type, last.Error)
	}
	var rows []serve.SkylineRow
	for _, rec := range recs[1 : len(recs)-1] {
		switch rec.Type {
		case "row":
			if rec.Row == nil {
				t.Fatal("row frame without a row")
			}
			rows = append(rows, *rec.Row)
		case "heartbeat":
		default:
			t.Fatalf("unexpected mid-stream frame %q (%s)", rec.Type, rec.Error)
		}
	}
	return rows, last
}

// checkTrailerMeta asserts the trailer identifies the complete cluster:
// an n-entry version vector summing to the buffered response's version
// — even when early termination canceled legs before their trailers.
func checkTrailerMeta(t *testing.T, name string, trailer serve.StreamRecord, n int, version int64) {
	t.Helper()
	if trailer.Cluster == nil {
		t.Fatalf("%s: trailer has no cluster metadata", name)
	}
	if trailer.Cluster.Shards != n || len(trailer.Cluster.Versions) != n {
		t.Fatalf("%s: trailer cluster %+v, want %d shards with a full version vector", name, trailer.Cluster, n)
	}
	var sum int64
	for _, v := range trailer.Cluster.Versions {
		sum += v
	}
	if sum != version || trailer.Version != version {
		t.Fatalf("%s: trailer version %d (vector sum %d), buffered %d", name, trailer.Version, sum, version)
	}
}

// TestStreamedScatterDifferential: the incremental streamed merge must
// deliver exactly the buffered scatter/gather's rows for every variant
// — planned, dynamic, ideal-fallback and forced-algorithm — and its
// unranked top-k must return K members of the full merged skyline with
// a complete trailer despite canceling legs early.
func TestStreamedScatterDifferential(t *testing.T) {
	checkGoroutines(t)
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			rows := fixtureRows(260, int64(4000+n))
			tc := newTestCluster(t, n, fixtureSpec("diff", rows))
			queryURL := tc.co.URL + "/tables/diff/query"

			for _, v := range variantQueries() {
				buffered := tc.query(tc.co.URL, "diff", v.req)
				recs := streamFrames(t, queryURL+"?stream=1", v.req)
				got, trailer := streamedRows(t, recs)
				if !equalKeys(sortedKeys(got), sortedKeys(buffered.Skyline)) {
					t.Errorf("%s: streamed %v\n buffered %v", v.name, sortedKeys(got), sortedKeys(buffered.Skyline))
				}
				if trailer.Count != buffered.Count {
					t.Errorf("%s: trailer count %d, buffered %d", v.name, trailer.Count, buffered.Count)
				}
				checkTrailerMeta(t, v.name, trailer, n, buffered.Version)
				for i := range got {
					if got[i].Shard == nil {
						t.Errorf("%s: streamed row %d missing shard annotation", v.name, i)
						break
					}
				}
				if v.req.Explain && trailer.Plan == nil {
					t.Errorf("%s: explain=true trailer has no plan", v.name)
				}
			}

			// Dynamic (orders) and ideal-point queries: the ideal route
			// falls back to buffered replay, the plain dynamic one merges
			// incrementally — both must match their buffered twins.
			dyn := serve.QueryRequest{Orders: []serve.QueryOrder{
				{Edges: [][2]string{{"d", "a"}, {"d", "b"}}},
				{Edges: [][2]string{{"t3", "t2"}, {"t2", "t1"}}},
			}}
			for _, req := range []serve.QueryRequest{dyn, {Ideal: []int64{500, 500}, Orders: dyn.Orders}} {
				buffered := tc.query(tc.co.URL, "diff", req)
				got, trailer := streamedRows(t, streamFrames(t, queryURL+"?stream=1", req))
				name := "dynamic"
				if req.Ideal != nil {
					name = "dynamic-ideal"
				}
				if !equalKeys(sortedKeys(got), sortedKeys(buffered.Skyline)) {
					t.Errorf("%s: streamed rows diverge from buffered", name)
				}
				if trailer.Count != buffered.Count {
					t.Errorf("%s: trailer count %d, buffered %d", name, trailer.Count, buffered.Count)
				}
			}

			// The skyline with sTSS forced.
			skyline := tc.query(tc.co.URL, "diff", forcedSkyline)
			got, trailer := streamedRows(t, streamFrames(t, queryURL+"?stream=1", forcedSkyline))
			if !equalKeys(sortedKeys(got), sortedKeys(skyline.Skyline)) {
				t.Error("skyline: streamed rows diverge from buffered")
			}
			checkTrailerMeta(t, "skyline", trailer, n, skyline.Version)

			// Unranked top-k: K certified members of the full skyline, and
			// the trailer's version vector complete even though the legs
			// were canceled at the K-th certification.
			const k = 7
			member := make(map[string]int)
			for i := range skyline.Skyline {
				member[rowKey(&skyline.Skyline[i])]++
			}
			got, trailer = streamedRows(t, streamFrames(t, queryURL+"?stream=1", serve.QueryRequest{TopK: k}))
			wantLen := k
			if skyline.Count < k {
				wantLen = skyline.Count
			}
			if len(got) != wantLen {
				t.Errorf("topk: streamed %d rows, want %d", len(got), wantLen)
			}
			seen := make(map[string]int)
			for i := range got {
				key := rowKey(&got[i])
				seen[key]++
				if seen[key] > member[key] {
					t.Errorf("topk: streamed row %s not in the full skyline (or over-returned)", key)
				}
			}
			checkTrailerMeta(t, "topk", trailer, n, skyline.Version)

			// Ranked top-k rides the buffered fallback: rank-equal to the
			// buffered cluster answer by oracle score at every position.
			for _, rank := range []struct {
				name string
				req  serve.QueryRequest
				of   func(r *serve.SkylineRow) float64
			}{
				{"domcount", serve.QueryRequest{TopK: k, Rank: "domcount"},
					func(r *serve.SkylineRow) float64 { return -float64(domCountOracle(ownPref, rows, r)) }},
				{"ideal", serve.QueryRequest{TopK: k, Rank: "ideal", Ideal: []int64{500, 500}},
					func(r *serve.SkylineRow) float64 { return idealScoreOracle(r, []int64{500, 500}) }},
			} {
				buffered := tc.query(tc.co.URL, "diff", rank.req)
				got, _ := streamedRows(t, streamFrames(t, queryURL+"?stream=1", rank.req))
				if len(got) != len(buffered.Skyline) {
					t.Errorf("topk-%s: streamed %d rows, buffered %d", rank.name, len(got), len(buffered.Skyline))
					continue
				}
				for i := range got {
					if gs, bs := rank.of(&got[i]), rank.of(&buffered.Skyline[i]); gs != bs {
						t.Errorf("topk-%s: position %d score %v streamed vs %v buffered — not rank-equal",
							rank.name, i, gs, bs)
					}
				}
			}
		})
	}
}

// truncatingProxy fronts one shard and tears streamed responses down
// after a few hundred bytes — the wire failure of a shard dying
// mid-stream: some frames arrive, the trailer never does.
func truncatingProxy(t *testing.T, shardURL string) *httptest.Server {
	t.Helper()
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := http.NewRequestWithContext(r.Context(), r.Method, shardURL+r.URL.RequestURI(), r.Body)
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
		if !serve.WantsStream(r) {
			io.Copy(w, resp.Body)
			return
		}
		// Relay the header frame and a little more, then kill the
		// connection without a trailer.
		io.CopyN(w, resp.Body, 300)
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler)
	}))
	t.Cleanup(proxy.Close)
	return proxy
}

// stallingProxy fronts one shard and pauses its streamed responses:
// the first stallAfter NDJSON lines are forwarded (and flushed), then
// the relay blocks until release is closed, then the rest of the
// stream flows. Buffered responses pass through whole.
func stallingProxy(t *testing.T, shardURL string, stallAfter int, release <-chan struct{}) *httptest.Server {
	t.Helper()
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := http.NewRequestWithContext(r.Context(), r.Method, shardURL+r.URL.RequestURI(), r.Body)
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
		if !serve.WantsStream(r) {
			io.Copy(w, resp.Body)
			return
		}
		rd := bufio.NewReader(resp.Body)
		for lines := 0; ; lines++ {
			if lines == stallAfter {
				select {
				case <-release:
				case <-r.Context().Done():
					return
				}
			}
			line, err := rd.ReadBytes('\n')
			if len(line) > 0 {
				if _, werr := w.Write(line); werr != nil {
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
	return proxy
}

// TestStreamedHashCertifyBeforeCompletion: under hash partitioning no
// shard's statistics min corner ever clears, so certification rides the
// dynamic streamed-key bound — rows must certify while the other leg is
// still mid-stream. One shard stalls after two row frames; the
// coordinator must keep emitting certified rows from the live shard
// (their keys are covered by the stalled shard's last-seen key) instead
// of waiting for the stalled leg to complete.
func TestStreamedHashCertifyBeforeCompletion(t *testing.T) {
	checkGoroutines(t)
	shard0 := httptest.NewServer(serve.NewWithConfig(serve.Config{
		Shard: &serve.ShardIdentity{Index: 0, Count: 2},
	}).Handler())
	t.Cleanup(shard0.Close)
	shard1 := httptest.NewServer(serve.NewWithConfig(serve.Config{
		Shard: &serve.ShardIdentity{Index: 1, Count: 2},
	}).Handler())
	t.Cleanup(shard1.Close)
	release := make(chan struct{})
	var released bool
	// Forward the shard's header and two keyed row frames, then stall.
	proxy := stallingProxy(t, shard1.URL, 3, release)

	coord, err := New(Config{Shards: []string{shard0.URL, proxy.URL}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(coord.Handler(serve.New(8).Handler()))
	t.Cleanup(front.Close)

	// Anti-correlated TO-only rows, hash-partitioned (the default): every
	// row is in the skyline, both shards hold rows across the full value
	// range, and every shard's min corner threatens every candidate — the
	// static bound alone would emit nothing until a leg completes.
	const n = 400
	spec := serve.TableSpec{Name: "ac", TOColumns: []string{"x", "y"}}
	for i := 0; i < n; i++ {
		spec.Rows = append(spec.Rows, serve.RowSpec{TO: []int64{int64(i), int64(n - i)}})
	}
	buf, _ := json.Marshal(spec)
	resp, err := http.Post(front.URL+"/tables", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d", resp.StatusCode)
	}

	buf, _ = json.Marshal(forcedSkyline)
	sres, err := http.Post(front.URL+"/tables/ac/query?stream=1", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer sres.Body.Close()
	if sres.StatusCode != http.StatusOK {
		t.Fatalf("stream: HTTP %d", sres.StatusCode)
	}
	frames := make(chan serve.StreamRecord)
	decErr := make(chan error, 1)
	go func() {
		dec := json.NewDecoder(sres.Body)
		for {
			var rec serve.StreamRecord
			if err := dec.Decode(&rec); err != nil {
				decErr <- err
				return
			}
			frames <- rec
		}
	}()

	rows := 0
	var trailer *serve.StreamRecord
	for trailer == nil {
		select {
		case rec := <-frames:
			switch rec.Type {
			case "row":
				rows++
				// Five certified rows arrived while shard 1's leg was
				// provably incomplete: the dynamic key bound is doing the
				// certification. Then let the stalled leg finish.
				if rows == 5 && !released {
					released = true
					close(release)
				}
			case "trailer":
				tr := rec
				trailer = &tr
			case "error":
				t.Fatalf("stream error: %s", rec.Error)
			}
		case err := <-decErr:
			t.Fatalf("stream ended after %d rows without a trailer: %v", rows, err)
		case <-time.After(30 * time.Second):
			if !released {
				t.Fatalf("no certified rows while the slow leg was stalled after %d rows — dynamic key bound not certifying", rows)
			}
			t.Fatalf("stream did not finish after release (%d rows)", rows)
		}
	}
	if !released {
		t.Fatal("trailer arrived before any mid-stall certification")
	}
	if rows != n || trailer.Count != n {
		t.Fatalf("streamed %d rows, trailer count %d, want %d", rows, trailer.Count, n)
	}
	checkTrailerMeta(t, "hash-certify", *trailer, 2, trailer.Version)
}

// TestStreamedDeadShardLeg: when a shard's stream dies before its
// trailer, the coordinator must end the client stream with an "error"
// frame — a torn leg can never pass off a partial merge as complete —
// and the coordinator keeps serving afterwards.
func TestStreamedDeadShardLeg(t *testing.T) {
	checkGoroutines(t)
	shard0 := httptest.NewServer(serve.NewWithConfig(serve.Config{
		Shard: &serve.ShardIdentity{Index: 0, Count: 2},
	}).Handler())
	t.Cleanup(shard0.Close)
	shard1 := httptest.NewServer(serve.NewWithConfig(serve.Config{
		Shard: &serve.ShardIdentity{Index: 1, Count: 2},
	}).Handler())
	t.Cleanup(shard1.Close)
	proxy := truncatingProxy(t, shard1.URL)

	coord, err := New(Config{Shards: []string{shard0.URL, proxy.URL}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(coord.Handler(serve.New(8).Handler()))
	t.Cleanup(front.Close)

	spec := fixtureSpec("diff", fixtureRows(400, 99))
	buf, _ := json.Marshal(spec)
	resp, err := http.Post(front.URL+"/tables", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d", resp.StatusCode)
	}

	recs := streamFrames(t, front.URL+"/tables/diff/query?stream=1",
		serve.QueryRequest{Subspace: []string{"x", "y"}})
	last := recs[len(recs)-1]
	if last.Type != "error" {
		t.Fatalf("stream over a dead shard ended with %q, want an error frame", last.Type)
	}
	if !strings.Contains(last.Error, "shard 1") {
		t.Fatalf("error %q does not name the dead shard", last.Error)
	}

	// The coordinator survives the torn leg: buffered queries (which the
	// proxy forwards whole) still answer.
	var out serve.QueryResponse
	buf, _ = json.Marshal(serve.QueryRequest{Subspace: []string{"x", "y"}})
	resp, err = http.Post(front.URL+"/tables/diff/query", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("buffered query after torn stream: %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Count == 0 {
		t.Fatal("buffered query after torn stream returned no rows")
	}
}
