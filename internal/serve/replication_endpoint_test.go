package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
)

// TestReplicaSnapshotEndpoint: the bootstrap seed is the serving
// snapshot in the columnar storage encoding, at the served version.
func TestReplicaSnapshotEndpoint(t *testing.T) {
	s, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/tables/flights/replica/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Tss-Version"); got != "0" {
		t.Fatalf("X-Tss-Version = %q, want 0", got)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := store.DecodeSnapshot(b)
	if err != nil {
		t.Fatal(err)
	}
	info, _ := s.Table("flights")
	if snap.Version != info.Version {
		t.Fatalf("snapshot version %d, table at %d", snap.Version, info.Version)
	}
	if snap.Rows.N() != info.Rows {
		t.Fatalf("snapshot has %d rows, table has %d", snap.Rows.N(), info.Rows)
	}
}

// TestReplicaLogEndpoint: the tail endpoint ships exactly the committed
// WAL records past ?after, in on-disk framing.
func TestReplicaLogEndpoint(t *testing.T) {
	s := NewWithConfig(Config{Store: store.NewMem(), CheckpointEvery: 1 << 30})
	if _, err := s.CreateTable(durableSpec()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		batch := BatchRequest{Add: []RowSpec{{TO: []int64{int64(10 + i), 0}, PO: []string{"a"}}}}
		var out BatchResponse
		if code := doJSON(t, http.MethodPost, ts.URL+"/tables/flights/rows:batch", batch, &out); code != http.StatusOK {
			t.Fatalf("batch %d: status %d", i, code)
		}
	}

	fetch := func(after int64) []int64 {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("%s/tables/flights/replica/log?after=%d", ts.URL, after))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("after=%d: status %d", after, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		var versions []int64
		if err := store.ReplayWAL(b, func(m *store.Mutation) error {
			versions = append(versions, m.Version)
			return nil
		}); err != nil {
			t.Fatalf("after=%d: replay: %v", after, err)
		}
		return versions
	}
	if got := fetch(0); !reflect.DeepEqual(got, []int64{1, 2}) {
		t.Fatalf("after=0: versions %v, want [1 2]", got)
	}
	if got := fetch(1); !reflect.DeepEqual(got, []int64{2}) {
		t.Fatalf("after=1: versions %v, want [2]", got)
	}
	if got := fetch(2); got != nil {
		t.Fatalf("after=2: versions %v, want none", got)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/tables/flights/replica/log?after=x", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("bad after: status %d, want 400", code)
	}
}

// TestReplicaLogStoreless: an ephemeral node has no log to ship.
func TestReplicaLogStoreless(t *testing.T) {
	_, ts := newTestServer(t)
	if code := doJSON(t, http.MethodGet, ts.URL+"/tables/flights/replica/log?after=0", nil, nil); code != http.StatusConflict {
		t.Fatalf("storeless log: status %d, want 409", code)
	}
}

// TestReplicaLogCompacted: once a checkpoint absorbs the suffix a
// follower needs, the endpoint answers 410 so the follower re-seeds.
func TestReplicaLogCompacted(t *testing.T) {
	s := NewWithConfig(Config{Store: store.NewMem(), CheckpointEvery: 1})
	if _, err := s.CreateTable(durableSpec()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	batch := BatchRequest{Add: []RowSpec{{TO: []int64{10, 0}, PO: []string{"a"}}}}
	if code := doJSON(t, http.MethodPost, ts.URL+"/tables/flights/rows:batch", batch, nil); code != http.StatusOK {
		t.Fatalf("batch: status %d", code)
	}
	// CheckpointEvery=1 checkpoints right after the batch, truncating
	// the log: version 1 is only available via the snapshot now.
	if code := doJSON(t, http.MethodGet, ts.URL+"/tables/flights/replica/log?after=0", nil, nil); code != http.StatusGone {
		t.Fatalf("compacted tail: status %d, want 410", code)
	}
	// A caught-up follower (after=1) still gets an empty 200 tail.
	if code := doJSON(t, http.MethodGet, ts.URL+"/tables/flights/replica/log?after=1", nil, nil); code != http.StatusOK {
		t.Fatalf("caught-up tail: status %d, want 200", code)
	}
}

// TestMinVersionPinning: ?minVersion=N answers 412 until the table has
// published version N.
func TestMinVersionPinning(t *testing.T) {
	_, ts := newTestServer(t)
	if code := doJSON(t, http.MethodGet, ts.URL+"/tables/flights?minVersion=0", nil, nil); code != http.StatusOK {
		t.Fatalf("minVersion=0: status %d", code)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/tables/flights?minVersion=1", nil, nil); code != http.StatusPreconditionFailed {
		t.Fatalf("minVersion=1 at version 0: status %d, want 412", code)
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/tables/flights/query?minVersion=1", QueryRequest{}, nil); code != http.StatusPreconditionFailed {
		t.Fatalf("query minVersion=1 at version 0: status %d, want 412", code)
	}
	batch := BatchRequest{Add: []RowSpec{{TO: []int64{10, 0}, PO: []string{"a"}}}}
	if code := doJSON(t, http.MethodPost, ts.URL+"/tables/flights/rows:batch", batch, nil); code != http.StatusOK {
		t.Fatal("batch failed")
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/tables/flights?minVersion=1", nil, nil); code != http.StatusOK {
		t.Fatalf("minVersion=1 at version 1: status %d", code)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/tables/flights?minVersion=oops", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("bad minVersion: status %d, want 400", code)
	}
}

// TestReadOnlyFollower: follower mode rejects every HTTP mutation with
// 403 while reads and the in-process replication path keep working.
func TestReadOnlyFollower(t *testing.T) {
	s := NewWithConfig(Config{ReadOnly: true})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code := doJSON(t, http.MethodPost, ts.URL+"/tables", durableSpec(), nil); code != http.StatusForbidden {
		t.Fatalf("create on follower: status %d, want 403", code)
	}
	// The replication path is in-process and unaffected.
	if _, err := s.CreateTable(durableSpec()); err != nil {
		t.Fatal(err)
	}
	batch := BatchRequest{Add: []RowSpec{{TO: []int64{10, 0}, PO: []string{"a"}}}}
	if code := doJSON(t, http.MethodPost, ts.URL+"/tables/flights/rows:batch", batch, nil); code != http.StatusForbidden {
		t.Fatalf("batch on follower: status %d, want 403", code)
	}
	if code := doJSON(t, http.MethodDelete, ts.URL+"/tables/flights", nil, nil); code != http.StatusForbidden {
		t.Fatalf("delete on follower: status %d, want 403", code)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/tables/flights", nil, nil); code != http.StatusOK {
		t.Fatal("read on follower failed")
	}
	var stats StatsResponse
	if code := doJSON(t, http.MethodGet, ts.URL+"/statsz", nil, &stats); code != http.StatusOK {
		t.Fatal("statsz failed")
	}
	if !stats.ReadOnly {
		t.Fatal("statsz does not report readOnly")
	}
}

// ckptFailStore injects SaveSnapshot failures (checkpoint failures)
// while leaving the WAL append path healthy.
type ckptFailStore struct {
	*store.Mem
	mu   sync.Mutex
	fail bool
}

func (s *ckptFailStore) setFail(v bool) {
	s.mu.Lock()
	s.fail = v
	s.mu.Unlock()
}

func (s *ckptFailStore) SaveSnapshot(name string, snap *store.Snapshot) error {
	s.mu.Lock()
	fail := s.fail
	s.mu.Unlock()
	if fail {
		return errors.New("injected checkpoint failure")
	}
	return s.Mem.SaveSnapshot(name, snap)
}

// TestCheckpointBackoffAndDegradedHealth: failed checkpoints retry with
// batch-counted exponential backoff (1, 2, 4, ... skipped batches), a
// streak of checkpointDegradedAfter failures flips /healthz to
// "degraded" (still HTTP 200), and the first success clears both the
// backoff and the degraded flag.
func TestCheckpointBackoffAndDegradedHealth(t *testing.T) {
	fs := &ckptFailStore{Mem: store.NewMem()}
	s := NewWithConfig(Config{Store: fs, CheckpointEvery: 1})
	if _, err := s.CreateTable(durableSpec()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	logSize := func() int64 {
		t.Helper()
		n, err := fs.LogSize("flights")
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	emptyLog := logSize() // header-only WAL right after create
	fs.setFail(true)

	e, ok := s.table("flights")
	if !ok {
		t.Fatal("table missing")
	}
	batch := func() {
		t.Helper()
		req := BatchRequest{Add: []RowSpec{{TO: []int64{10, 0}, PO: []string{"a"}}}}
		if _, err := s.applyBatch(e, req); err != nil {
			t.Fatal(err)
		}
	}
	health := func() (status string, stuck []string) {
		t.Helper()
		var out struct {
			Status          string   `json:"status"`
			CheckpointStuck []string `json:"checkpointStuck"`
		}
		if code := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, &out); code != http.StatusOK {
			t.Fatalf("healthz status %d, want 200 even when degraded", code)
		}
		return out.Status, out.CheckpointStuck
	}

	// Attempts happen on batches 1, 3 (1 skipped), and 6 (2 skipped):
	// three consecutive failures reach the degraded threshold.
	wantErrs := []int64{1, 1, 2, 2, 2, 3}
	for i, want := range wantErrs {
		batch()
		if got := s.checkpointErrs.Load(); got != want {
			t.Fatalf("after batch %d: checkpointErrs = %d, want %d", i+1, got, want)
		}
	}
	if got, want := s.CheckpointStuck(), []string{"flights"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("CheckpointStuck = %v, want %v", got, want)
	}
	if status, stuck := health(); status != "degraded" || !reflect.DeepEqual(stuck, []string{"flights"}) {
		t.Fatalf("healthz = %q %v, want degraded [flights]", status, stuck)
	}

	// Store recovers: batches 7-10 are still inside the 4-batch backoff
	// window, batch 11 retries, succeeds, and clears everything.
	fs.setFail(false)
	for i := 0; i < 4; i++ {
		batch()
	}
	if logSize() <= emptyLog {
		t.Fatal("checkpoint ran during backoff window")
	}
	batch()
	if got := s.CheckpointStuck(); len(got) != 0 {
		t.Fatalf("CheckpointStuck after recovery = %v", got)
	}
	if status, _ := health(); status != "ok" {
		t.Fatalf("healthz after recovery = %q, want ok", status)
	}
	if got := logSize(); got > emptyLog {
		t.Fatalf("WAL not truncated after recovered checkpoint: %d bytes", got)
	}
}

// TestStreamResponseHeartbeatDuringCompute: heartbeats must flow while
// the producer is still computing, before the first row — a client
// behind a proxy learns the stream is alive even when the result takes
// a while to materialize.
func TestStreamResponseHeartbeatDuringCompute(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		StreamResponse(w, r, 20*time.Millisecond, StreamRecord{Type: "header", Table: "t"},
			func(ctx context.Context, emit func(StreamRecord) error) (StreamRecord, error) {
				time.Sleep(250 * time.Millisecond) // slow compute before any row
				if err := emit(StreamRecord{Type: "row", Emission: 0}); err != nil {
					return StreamRecord{}, err
				}
				return StreamRecord{Type: "trailer"}, nil
			})
	})
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var kinds []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var rec StreamRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad frame %q: %v", sc.Text(), err)
		}
		kinds = append(kinds, rec.Type)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	heartbeatsBeforeRow := 0
	for _, k := range kinds {
		if k == "row" {
			break
		}
		if k == "heartbeat" {
			heartbeatsBeforeRow++
		}
	}
	if heartbeatsBeforeRow == 0 {
		t.Fatalf("no heartbeat before the first row; frames: %v", kinds)
	}
	if kinds[len(kinds)-1] != "trailer" {
		t.Fatalf("stream did not end in trailer: %v", kinds)
	}
}
