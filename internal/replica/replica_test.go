package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/serve"
	"repro/internal/store"
)

func testSpec(rows int) serve.TableSpec {
	spec := serve.TableSpec{
		Name:      "flights",
		TOColumns: []string{"price", "stops"},
		Orders: []serve.OrderSpec{{
			Name:   "airline",
			Values: []string{"a", "b", "c", "d"},
			Edges:  [][2]string{{"a", "b"}, {"a", "c"}, {"b", "d"}, {"c", "d"}},
		}},
		CacheCapacity: 8,
	}
	for i := 0; i < rows; i++ {
		spec.Rows = append(spec.Rows, serve.RowSpec{
			TO: []int64{int64(100 + 17*i%90), int64(i % 4)},
			PO: []string{spec.Orders[0].Values[i%4]},
		})
	}
	return spec
}

func postBatch(t *testing.T, url string, rows ...serve.RowSpec) {
	t.Helper()
	buf, err := json.Marshal(serve.BatchRequest{Add: rows})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/tables/flights/rows:batch", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("batch: status %d: %s", resp.StatusCode, b)
	}
}

// skylineBody is the raw answer of flights' skyline with sTSS forced and
// the memo bypassed.
func skylineBody(t *testing.T, base string) []byte {
	t.Helper()
	url := base + "/tables/flights/query"
	resp, err := http.Post(url, "application/json", strings.NewReader(`{"algo":"stss","noCache":true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, b)
	}
	return b
}

func row(price, stops int64, airline string) serve.RowSpec {
	return serve.RowSpec{TO: []int64{price, stops}, PO: []string{airline}}
}

// newPrimary boots a durable primary with the flights table over an
// httptest listener.
func newPrimary(t *testing.T, checkpointEvery int64) (*serve.Server, *httptest.Server) {
	t.Helper()
	s := serve.NewWithConfig(serve.Config{Store: store.NewMem(), CheckpointEvery: checkpointEvery})
	if _, err := s.CreateTable(testSpec(12)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// newFollower pairs a read-only local catalog with a Follower loop
// against the given primary.
func newFollower(t *testing.T, primaryURL string, st store.Store) (*serve.Server, *Follower, *httptest.Server) {
	t.Helper()
	srv := serve.NewWithConfig(serve.Config{ReadOnly: true, Store: st})
	f, err := New(Config{Primary: primaryURL, Server: srv, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, f, ts
}

// TestBootstrapAndTail: the first Sync seeds from the snapshot, later
// Syncs apply WAL frames; after each, the follower serves the same
// skyline as the primary at the same version.
func TestBootstrapAndTail(t *testing.T) {
	_, pts := newPrimary(t, 1<<30)
	postBatch(t, pts.URL, row(10, 0, "a"))
	postBatch(t, pts.URL, row(11, 1, "b"))

	fsrv, f, fts := newFollower(t, pts.URL, nil)
	ctx := context.Background()
	if err := f.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	info, ok := fsrv.Table("flights")
	if !ok || info.Version != 2 {
		t.Fatalf("follower at %+v, want version 2", info)
	}
	if lag := f.Lag()["flights"]; lag != 0 {
		t.Fatalf("lag = %d, want 0", lag)
	}

	// Tail path: new primary batches flow through the log, not a
	// re-bootstrap (versions advance one record at a time).
	postBatch(t, pts.URL, row(5, 0, "a"))
	postBatch(t, pts.URL, row(6, 0, "d"))
	if err := f.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	info, _ = fsrv.Table("flights")
	if info.Version != 4 {
		t.Fatalf("follower at version %d, want 4", info.Version)
	}
	type skylineResult struct {
		Version int64           `json:"version"`
		Rows    int             `json:"rows"`
		Count   int             `json:"count"`
		Skyline json.RawMessage `json:"skyline"`
	}
	var want, got skylineResult
	if err := json.Unmarshal(skylineBody(t, pts.URL), &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(skylineBody(t, fts.URL), &got); err != nil {
		t.Fatal(err)
	}
	if want.Version != got.Version || want.Rows != got.Rows || want.Count != got.Count ||
		!bytes.Equal(want.Skyline, got.Skyline) {
		t.Fatalf("skylines differ:\nprimary:  %+v\nfollower: %+v", want, got)
	}
	if tables := f.Tables(); len(tables) != 1 || tables[0] != "flights" {
		t.Fatalf("Tables() = %v", tables)
	}
}

// TestCompactionReseed: when the primary's checkpoints compact the log
// tail away (410), the follower re-seeds from the snapshot.
func TestCompactionReseed(t *testing.T) {
	_, pts := newPrimary(t, 1) // checkpoint after every batch
	fsrv, f, _ := newFollower(t, pts.URL, nil)
	ctx := context.Background()
	if err := f.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	postBatch(t, pts.URL, row(10, 0, "a"))
	postBatch(t, pts.URL, row(11, 1, "b"))
	// Both records were absorbed into the primary's snapshot; the tail
	// fetch answers 410 and Sync must fall back to a fresh seed.
	if err := f.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	info, _ := fsrv.Table("flights")
	if info.Version != 2 {
		t.Fatalf("follower at version %d, want 2 via re-seed", info.Version)
	}
	if lag := f.Lag()["flights"]; lag != 0 {
		t.Fatalf("lag = %d, want 0", lag)
	}
}

// dropFailStore wraps Mem and fails Drop on demand.
type dropFailStore struct {
	*store.Mem
	failDrop bool
}

func (s *dropFailStore) Drop(name string) error {
	if s.failDrop {
		return errors.New("injected drop failure")
	}
	return s.Mem.Drop(name)
}

// TestDropPropagation: a table the primary drops disappears from the
// follower on the next Sync — and a follower whose store cannot remove
// it reports that round as failed, keeps serving and listing the table,
// and retries on the next one.
func TestDropPropagation(t *testing.T) {
	psrv, pts := newPrimary(t, 1<<30)
	st := &dropFailStore{Mem: store.NewMem()}
	fsrv, f, _ := newFollower(t, pts.URL, st)
	ctx := context.Background()
	if err := f.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if _, ok := fsrv.Table("flights"); !ok {
		t.Fatal("follower missing flights after first sync")
	}
	if ok, err := psrv.DropTable("flights"); !ok || err != nil {
		t.Fatalf("primary drop: %v, %v", ok, err)
	}
	st.failDrop = true
	if err := f.Sync(ctx); err == nil || !strings.Contains(err.Error(), `"flights"`) {
		t.Fatalf("Sync with a failing local drop = %v, want an error naming the table", err)
	}
	if _, ok := fsrv.Table("flights"); !ok {
		t.Fatal("follower forgot a table its store still holds")
	}
	if tables := f.Tables(); len(tables) != 1 {
		t.Fatalf("Tables() = %v, want the undropped table still managed", tables)
	}
	st.failDrop = false
	if err := f.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if _, ok := fsrv.Table("flights"); ok {
		t.Fatal("follower still has dropped table")
	}
	if tables := f.Tables(); len(tables) != 0 {
		t.Fatalf("Tables() = %v, want empty", tables)
	}
}

// TestFollowerDurability: a follower with its own store persists what
// it applied — a restart recovers the mirrored version without talking
// to the primary.
func TestFollowerDurability(t *testing.T) {
	_, pts := newPrimary(t, 1<<30)
	st := store.NewMem()
	_, f, _ := newFollower(t, pts.URL, st)
	postBatch(t, pts.URL, row(10, 0, "a"))
	if err := f.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}

	restarted := serve.NewWithConfig(serve.Config{ReadOnly: true, Store: st})
	if _, err := restarted.Recover(); err != nil {
		t.Fatal(err)
	}
	info, ok := restarted.Table("flights")
	if !ok || info.Version != 1 {
		t.Fatalf("restarted follower at %+v, want version 1", info)
	}
}

// TestLagReporting: a Sync observes the primary version at list time;
// the reported lag is primary − applied for that round.
func TestLagReporting(t *testing.T) {
	_, pts := newPrimary(t, 1<<30)
	_, f, _ := newFollower(t, pts.URL, nil)
	if err := f.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	if lag, ok := f.Lag()["flights"]; !ok || lag != 0 {
		t.Fatalf("Lag() = %v, want flights:0", f.Lag())
	}
}
