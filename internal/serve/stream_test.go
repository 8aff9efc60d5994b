package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// checkGoroutines fails t unless, once the test has closed its servers,
// the goroutine count returns to its value at the call within a bounded
// wait: no producer or handler goroutine of a torn-down stream outlives
// the test.
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

// streamRecords POSTs one streamed query and decodes every NDJSON frame
// in order.
func streamRecords(t *testing.T, url string, body any) []StreamRecord {
	t.Helper()
	resp := openStream(t, url, body)
	defer resp.Body.Close()
	var recs []StreamRecord
	dec := json.NewDecoder(resp.Body)
	for {
		var rec StreamRecord
		if err := dec.Decode(&rec); err == io.EOF {
			return recs
		} else if err != nil {
			t.Fatalf("decode frame %d: %v", len(recs), err)
		}
		recs = append(recs, rec)
	}
}

func openStream(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		t.Fatalf("POST %s: HTTP %d: %s", url, resp.StatusCode, msg)
	}
	return resp
}

// splitFrames separates the data-bearing frames from heartbeats and
// asserts the header-rows-trailer envelope.
func splitFrames(t *testing.T, recs []StreamRecord) (header StreamRecord, rows []StreamRecord, trailer StreamRecord) {
	t.Helper()
	if len(recs) < 2 {
		t.Fatalf("stream has %d frames, need header + trailer", len(recs))
	}
	if recs[0].Type != "header" {
		t.Fatalf("first frame is %q, want header", recs[0].Type)
	}
	last := recs[len(recs)-1]
	if last.Type != "trailer" {
		t.Fatalf("last frame is %q, want trailer", last.Type)
	}
	for _, rec := range recs[1 : len(recs)-1] {
		switch rec.Type {
		case "row":
			rows = append(rows, rec)
		case "heartbeat":
		default:
			t.Fatalf("unexpected mid-stream frame %q (error: %s)", rec.Type, rec.Error)
		}
	}
	return recs[0], rows, last
}

// forcedSkyline is the table's skyline with SFS forced and the memo
// bypassed — on a stream, the progressive scan.
var forcedSkyline = QueryRequest{Algo: "sfs", NoCache: true}

// TestStreamSkylineNDJSON: POST /query?stream=1 delivers the exact
// buffered skyline as header → rows → trailer NDJSON frames, with
// emission indexes in order and the trailer repeating the snapshot
// version.
func TestStreamSkylineNDJSON(t *testing.T) {
	_, ts := newTestServer(t)

	var buffered QueryResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/tables/flights/query", forcedSkyline, &buffered); code != http.StatusOK {
		t.Fatalf("buffered skyline: %d", code)
	}

	recs := streamRecords(t, ts.URL+"/tables/flights/query?stream=1", forcedSkyline)
	header, rows, trailer := splitFrames(t, recs)
	if header.Table != "flights" || header.Rows != 10 {
		t.Fatalf("header %+v, want table=flights rows=10", header)
	}
	if trailer.Version != header.Version {
		t.Fatalf("trailer version %d != header version %d", trailer.Version, header.Version)
	}
	if trailer.Count != len(buffered.Skyline) {
		t.Fatalf("trailer count %d, buffered %d", trailer.Count, len(buffered.Skyline))
	}
	var got []SkylineRow
	for i, rec := range rows {
		if rec.Row == nil {
			t.Fatalf("row frame %d has no row", i)
		}
		if rec.Emission != i {
			t.Fatalf("row frame %d carries emission %d", i, rec.Emission)
		}
		got = append(got, *rec.Row)
	}
	if !slices.Equal(rowSet(got), rowSet(buffered.Skyline)) {
		t.Fatalf("streamed rows %v, buffered %v", rowSet(got), rowSet(buffered.Skyline))
	}
}

// TestStreamQuerySSE: the same stream under ?sse=1 frames each record
// as an SSE data event with the text/event-stream content type.
func TestStreamQuerySSE(t *testing.T) {
	_, ts := newTestServer(t)
	resp := openStream(t, ts.URL+"/tables/flights/query?stream=1&sse=1", forcedSkyline)
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var recs []StreamRecord
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			t.Fatalf("non-SSE line %q", line)
		}
		var rec StreamRecord
		if err := json.Unmarshal([]byte(data), &rec); err != nil {
			t.Fatalf("bad SSE payload %q: %v", data, err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	_, rows, trailer := splitFrames(t, recs)
	if len(rows) != 5 || trailer.Count != 5 {
		t.Fatalf("SSE stream delivered %d rows, trailer count %d, want 5", len(rows), trailer.Count)
	}
}

// TestStreamDynamicQuery: a dynamic (orders) query streams the exact
// buffered rows in order; ?limit truncates the emitted rows while the
// trailer still counts the full skyline.
func TestStreamDynamicQuery(t *testing.T) {
	_, ts := newTestServer(t)
	body := map[string]any{
		"orders": []map[string]any{{"edges": [][2]string{{"b", "a"}}}},
	}
	var buffered QueryResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/tables/flights/query", body, &buffered); code != http.StatusOK {
		t.Fatalf("buffered query: %d", code)
	}

	recs := streamRecords(t, ts.URL+"/tables/flights/query?stream=1", body)
	_, rows, trailer := splitFrames(t, recs)
	if len(rows) != len(buffered.Skyline) {
		t.Fatalf("streamed %d rows, buffered %d", len(rows), len(buffered.Skyline))
	}
	for i := range rows {
		if rows[i].Row.Row != buffered.Skyline[i].Row {
			t.Fatalf("streamed row %d is %d, buffered %d", i, rows[i].Row.Row, buffered.Skyline[i].Row)
		}
	}
	if trailer.Count != buffered.Count {
		t.Fatalf("trailer count %d, buffered %d", trailer.Count, buffered.Count)
	}

	recs = streamRecords(t, ts.URL+"/tables/flights/query?stream=1&limit=2", body)
	_, rows, trailer = splitFrames(t, recs)
	if len(rows) != 2 {
		t.Fatalf("limit=2 streamed %d rows", len(rows))
	}
	if trailer.Count != buffered.Count {
		t.Fatalf("limit=2 trailer count %d, want the full %d", trailer.Count, buffered.Count)
	}
}

// TestStreamPlannedTopK: a planner-mode unranked top-k streams exactly
// K rows and reports the plan in the trailer when asked.
func TestStreamPlannedTopK(t *testing.T) {
	_, ts := newTestServer(t)
	recs := streamRecords(t, ts.URL+"/tables/flights/query?stream=1",
		map[string]any{"topK": 3, "explain": true})
	_, rows, trailer := splitFrames(t, recs)
	if len(rows) != 3 || trailer.Count != 3 {
		t.Fatalf("top-3 stream: %d rows, trailer count %d", len(rows), trailer.Count)
	}
	if trailer.Plan == nil {
		t.Fatal("explain=true trailer has no plan")
	}
	if trailer.Plan.Algorithm != "sfs" {
		t.Fatalf("streamed top-k ran %q, want the progressive scan", trailer.Plan.Algorithm)
	}

	// The body's limit truncates a streamed planned query exactly like a
	// buffered one: 3 of the 5 skyline rows delivered, all 5 counted.
	body := map[string]any{"explain": true, "limit": 3}
	var buffered QueryResponse
	doJSON(t, http.MethodPost, ts.URL+"/tables/flights/query", body, &buffered)
	_, rows, trailer = splitFrames(t, streamRecords(t, ts.URL+"/tables/flights/query?stream=1", body))
	if len(buffered.Skyline) != 3 || len(rows) != 3 || trailer.Count != 5 || buffered.Count != 5 {
		t.Fatalf("body limit=3: buffered %d rows (count %d), streamed %d rows (count %d); want 3 rows, count 5",
			len(buffered.Skyline), buffered.Count, len(rows), trailer.Count)
	}
}

// TestQueryBodyBound: a query body past maxQueryBody is refused with
// 413 before it is decoded in full.
func TestQueryBodyBound(t *testing.T) {
	_, ts := newTestServer(t)
	huge := QueryRequest{Subspace: []string{strings.Repeat("x", maxQueryBody)}}
	var e errorResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/tables/flights/query", huge, &e); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized query body: status %d (error %q), want 413", code, e.Error)
	}
}

// antiCorrSpec builds an n-row TO-only table whose skyline is every row
// (x+y constant): streams over it emit n rows, so a client can
// disconnect mid-stream deterministically.
func antiCorrSpec(name string, n int) TableSpec {
	spec := TableSpec{Name: name, TOColumns: []string{"x", "y"}}
	for i := 0; i < n; i++ {
		spec.Rows = append(spec.Rows, RowSpec{TO: []int64{int64(i), int64(n - i)}})
	}
	return spec
}

// TestStreamHeartbeat: a producer that stays silent longer than the
// heartbeat interval gets heartbeat frames keeping the connection
// alive. The producer here emits nothing until the response has carried
// a heartbeat (beatWriter closes beat after writing one), so the frame
// is certain to come, however fast or loaded the host.
func TestStreamHeartbeat(t *testing.T) {
	w := &beatWriter{ResponseWriter: httptest.NewRecorder(), beat: make(chan struct{})}
	r := httptest.NewRequest(http.MethodPost, "/tables/t/query?stream=1", nil)
	const emitted = 5
	StreamResponse(w, r, time.Millisecond, StreamRecord{Type: "header", Table: "t"},
		func(ctx context.Context, emit func(StreamRecord) error) (StreamRecord, error) {
			select {
			case <-w.beat:
			case <-time.After(10 * time.Second):
				return StreamRecord{}, errors.New("no heartbeat frame within 10s of a silent producer")
			}
			for i := 0; i < emitted; i++ {
				if err := emit(StreamRecord{Type: "row", Emission: i}); err != nil {
					return StreamRecord{}, err
				}
			}
			return StreamRecord{Type: "trailer", Count: emitted}, nil
		})

	var recs []StreamRecord
	dec := json.NewDecoder(w.ResponseWriter.(*httptest.ResponseRecorder).Body)
	for {
		var rec StreamRecord
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("decode frame %d: %v", len(recs), err)
		}
		recs = append(recs, rec)
	}
	beats := 0
	for _, rec := range recs {
		if rec.Type == "heartbeat" {
			beats++
		}
	}
	if beats == 0 {
		t.Fatal("no heartbeat frames on a stream slower than the heartbeat interval")
	}
	_, rows, _ := splitFrames(t, recs)
	if len(rows) != emitted {
		t.Fatalf("streamed %d rows, the producer emitted %d", len(rows), emitted)
	}
}

// beatWriter closes beat once it has written a heartbeat frame.
type beatWriter struct {
	http.ResponseWriter
	once sync.Once
	beat chan struct{}
}

func (w *beatWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	if bytes.Contains(p, []byte(`"type":"heartbeat"`)) {
		w.once.Do(func() { close(w.beat) })
	}
	return n, err
}

// TestStreamClientDisconnectTeardown: a client that walks away
// mid-stream must abort the producer — and the aborted run must not
// have stored its partial enumeration in the plan memo. A later
// buffered run of the same query reports a cache miss, then (after a
// clean full run) a hit: the memo plumbing works, the aborted stream
// just never fed it.
func TestStreamClientDisconnectTeardown(t *testing.T) {
	checkGoroutines(t)
	s := New(8)
	if _, err := s.CreateTable(antiCorrSpec("wide", 20000)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	query := map[string]any{"subspace": []string{"x", "y"}}
	resp := openStream(t, ts.URL+"/tables/wide/query?stream=1", query)
	dec := json.NewDecoder(resp.Body)
	for i := 0; i < 4; i++ { // header + a few rows: strictly mid-stream
		var rec StreamRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	resp.Body.Close() // disconnect: the handler's request context cancels

	// The aborted stream must not have poisoned the memo: a buffered run
	// is a miss, and only after it completes does the memo serve hits.
	var first, second QueryResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/tables/wide/query", query, &first); code != http.StatusOK {
		t.Fatalf("buffered query: %d", code)
	}
	if first.CacheHit {
		t.Fatal("buffered run after a torn stream hit the cache — the aborted stream stored a partial skyline")
	}
	if first.Count != 20000 {
		t.Fatalf("buffered skyline has %d rows, want 20000", first.Count)
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/tables/wide/query", query, &second); code != http.StatusOK {
		t.Fatalf("second buffered query: %d", code)
	}
	if !second.CacheHit {
		t.Fatal("second buffered run missed the cache — memo plumbing is broken, the poisoning check proves nothing")
	}
	if second.Count != 20000 {
		t.Fatalf("cached skyline has %d rows, want 20000", second.Count)
	}

	// A limited stream still counts every certified row.
	recs := streamRecords(t, ts.URL+"/tables/wide/query?stream=1&limit=3", forcedSkyline)
	_, rows, trailer := splitFrames(t, recs)
	if len(rows) != 3 || trailer.Count != 20000 {
		t.Fatalf("limit=3 full stream: %d rows, trailer count %d (want 20000)", len(rows), trailer.Count)
	}
}
