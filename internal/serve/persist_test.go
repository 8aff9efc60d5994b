package serve

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/store"
)

func durableSpec() TableSpec {
	spec := TableSpec{
		Name:      "flights",
		TOColumns: []string{"price", "stops"},
		Orders: []OrderSpec{{
			Name:   "airline",
			Values: []string{"a", "b", "c", "d"},
			Edges:  [][2]string{{"a", "b"}, {"a", "c"}, {"b", "d"}, {"c", "d"}},
		}},
		CacheCapacity: 8,
	}
	for i := 0; i < 12; i++ {
		spec.Rows = append(spec.Rows, RowSpec{
			TO: []int64{int64(100 + 17*i%90), int64(i % 4)},
			PO: []string{spec.Orders[0].Values[i%4]},
		})
	}
	return spec
}

func skylineOf(t *testing.T, s *Server, table string) []SkylineRow {
	t.Helper()
	e, ok := s.table(table)
	if !ok {
		t.Fatalf("table %q missing", table)
	}
	snap := e.current()
	res, err := snap.table.SkylineWith("stss")
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]SkylineRow, len(res.Rows))
	for i, r := range res.Rows {
		to, po := snap.table.RowValues(r)
		rows[i] = SkylineRow{Row: r, TO: to, PO: po}
	}
	return rows
}

// TestDurableRecoverRoundTrip: create, mutate over several batches,
// then bring up a fresh Server over the same store: every table comes
// back at its last published version with identical rows and skyline.
func TestDurableRecoverRoundTrip(t *testing.T) {
	for _, engine := range []string{"mem", "disk"} {
		t.Run(engine, func(t *testing.T) {
			var st store.Store
			if engine == "mem" {
				st = store.NewMem()
			} else {
				var err error
				st, err = store.OpenDisk(t.TempDir(), store.DiskOptions{})
				if err != nil {
					t.Fatal(err)
				}
			}
			s1 := NewWithConfig(Config{Store: st})
			if _, err := s1.CreateTable(durableSpec()); err != nil {
				t.Fatal(err)
			}
			e, _ := s1.table("flights")
			for i := 0; i < 5; i++ {
				req := BatchRequest{
					Remove: []int{i},
					Add: []RowSpec{
						{TO: []int64{int64(50 + i), 0}, PO: []string{"d"}},
						{TO: []int64{int64(60 + i), 1}, PO: []string{"a"}},
					},
				}
				if _, err := s1.applyBatch(e, req); err != nil {
					t.Fatalf("batch %d: %v", i, err)
				}
			}
			wantInfo := e.info()
			wantSky := skylineOf(t, s1, "flights")

			// "Restart": a fresh server over the same store.
			s2 := NewWithConfig(Config{Store: st})
			infos, err := s2.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if len(infos) != 1 {
				t.Fatalf("recovered %d tables", len(infos))
			}
			got := infos[0]
			if got.Version != wantInfo.Version || got.Rows != wantInfo.Rows {
				t.Fatalf("recovered %+v, want version=%d rows=%d", got, wantInfo.Version, wantInfo.Rows)
			}
			if !reflect.DeepEqual(got.Orders, wantInfo.Orders) || !reflect.DeepEqual(got.TOColumns, wantInfo.TOColumns) {
				t.Fatal("recovered schema diverges")
			}
			gotSky := skylineOf(t, s2, "flights")
			if !reflect.DeepEqual(gotSky, wantSky) {
				t.Fatalf("recovered skyline diverges:\n got %v\nwant %v", gotSky, wantSky)
			}
			// Mutations continue from the recovered version.
			e2, _ := s2.table("flights")
			resp, err := s2.applyBatch(e2, BatchRequest{Add: []RowSpec{{TO: []int64{1, 1}, PO: []string{"b"}}}})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Version != wantInfo.Version+1 {
				t.Fatalf("post-recovery version %d, want %d", resp.Version, wantInfo.Version+1)
			}
		})
	}
}

// TestCheckpointTruncatesWAL: once the log passes the threshold, a
// batch checkpoints the table — the log shrinks and recovery still
// sees the same state.
func TestCheckpointTruncatesWAL(t *testing.T) {
	st := store.NewMem()
	s := NewWithConfig(Config{Store: st, CheckpointEvery: 256})
	if _, err := s.CreateTable(durableSpec()); err != nil {
		t.Fatal(err)
	}
	e, _ := s.table("flights")
	var maxLog int64
	for i := 0; i < 16; i++ {
		if _, err := s.applyBatch(e, BatchRequest{Add: []RowSpec{{TO: []int64{int64(i), 2}, PO: []string{"c"}}}}); err != nil {
			t.Fatal(err)
		}
		size, err := st.LogSize("flights")
		if err != nil {
			t.Fatal(err)
		}
		if size > maxLog {
			maxLog = size
		}
	}
	// The threshold plus one batch bounds the log: it must have been
	// truncated along the way, not grown monotonically.
	if size, _ := st.LogSize("flights"); size >= maxLog && maxLog > 512 {
		t.Fatalf("log never checkpointed: now %d, max %d", size, maxLog)
	}
	snap, err := st.Load("flights")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != e.current().version {
		t.Fatalf("store at version %d, server at %d", snap.Version, e.current().version)
	}
	if s.Stats().CheckpointErrors != 0 {
		t.Fatal("checkpoint errors counted")
	}
}

// failingStore wraps Mem and fails AppendMutation or Drop on demand.
type failingStore struct {
	*store.Mem
	failAppend bool
	failDrop   bool
}

func (f *failingStore) Drop(name string) error {
	if f.failDrop {
		return fmt.Errorf("injected drop failure")
	}
	return f.Mem.Drop(name)
}

func (f *failingStore) AppendMutation(name string, m *store.Mutation) error {
	if f.failAppend {
		return fmt.Errorf("injected append failure")
	}
	return f.Mem.AppendMutation(name, m)
}

// TestWALBeforePublish: if the WAL append fails, the batch is refused
// and readers never observe the new version — no acknowledged state
// can be lost on restart.
func TestWALBeforePublish(t *testing.T) {
	fs := &failingStore{Mem: store.NewMem()}
	s := NewWithConfig(Config{Store: fs})
	if _, err := s.CreateTable(durableSpec()); err != nil {
		t.Fatal(err)
	}
	e, _ := s.table("flights")
	fs.failAppend = true
	_, err := s.applyBatch(e, BatchRequest{Add: []RowSpec{{TO: []int64{1, 1}, PO: []string{"a"}}}})
	if err == nil {
		t.Fatal("batch succeeded despite WAL failure")
	}
	if v := e.current().version; v != 0 {
		t.Fatalf("snapshot published despite WAL failure: version %d", v)
	}
	if n := e.current().table.Len(); n != 12 {
		t.Fatalf("rows changed: %d", n)
	}
	fs.failAppend = false
	if _, err := s.applyBatch(e, BatchRequest{Add: []RowSpec{{TO: []int64{1, 1}, PO: []string{"a"}}}}); err != nil {
		t.Fatal(err)
	}
	if v := e.current().version; v != 1 {
		t.Fatalf("recovery batch at version %d", v)
	}
}

// TestDropRemovesPersistedState: dropped tables do not resurrect on
// recovery.
func TestDropRemovesPersistedState(t *testing.T) {
	st := store.NewMem()
	s := NewWithConfig(Config{Store: st})
	if _, err := s.CreateTable(durableSpec()); err != nil {
		t.Fatal(err)
	}
	if ok, err := s.DropTable("flights"); !ok || err != nil {
		t.Fatalf("drop: %v, %v", ok, err)
	}
	if _, err := st.Load("flights"); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("persisted state survived drop: %v", err)
	}
	s2 := NewWithConfig(Config{Store: st})
	infos, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 0 {
		t.Fatalf("dropped table resurrected: %v", infos)
	}
}

// TestRecoveredCacheCapacity: the table spec's cache sizing survives
// the round trip.
func TestRecoveredCacheCapacity(t *testing.T) {
	st := store.NewMem()
	s := NewWithConfig(Config{Store: st})
	if _, err := s.CreateTable(durableSpec()); err != nil {
		t.Fatal(err)
	}
	s2 := NewWithConfig(Config{Store: st})
	if _, err := s2.Recover(); err != nil {
		t.Fatal(err)
	}
	e, _ := s2.table("flights")
	if e.specCacheCap != 8 {
		t.Fatalf("cache capacity %d, want 8", e.specCacheCap)
	}
}

// TestStorageFailureIs5xx: a well-formed batch refused by a failing
// store answers 500, not 400 — clients must see a server fault. So must
// a drop the store cannot carry out: the table would come back at the
// next Recover, so the answer is a 500 naming it, and the catalog,
// /statsz and a restart all still have it.
func TestStorageFailureIs5xx(t *testing.T) {
	fs := &failingStore{Mem: store.NewMem()}
	s := NewWithConfig(Config{Store: fs})
	if _, err := s.CreateTable(durableSpec()); err != nil {
		t.Fatal(err)
	}
	fs.failAppend = true
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/tables/flights/rows:batch", "application/json",
		strings.NewReader(`{"add":[{"to":[1,1],"po":["a"]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("storage failure answered HTTP %d, want 500", resp.StatusCode)
	}
	// A malformed batch is still the client's fault.
	resp, err = http.Post(srv.URL+"/tables/flights/rows:batch", "application/json",
		strings.NewReader(`{"remove":[999]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad batch answered HTTP %d, want 400", resp.StatusCode)
	}

	tablesAfterRestart := func() int {
		restarted := NewWithConfig(Config{Store: fs})
		infos, err := restarted.Recover()
		if err != nil {
			t.Fatal(err)
		}
		return len(infos)
	}
	fs.failDrop = true
	var fail errorResponse
	if code := doJSON(t, http.MethodDelete, srv.URL+"/tables/flights", nil, &fail); code != http.StatusInternalServerError {
		t.Fatalf("failed drop answered HTTP %d, want 500", code)
	}
	if !strings.Contains(fail.Error, `drop table "flights"`) || !strings.Contains(fail.Error, "injected drop failure") {
		t.Fatalf("failed drop body %q does not name the table and the cause", fail.Error)
	}
	var stats StatsResponse
	doJSON(t, http.MethodGet, srv.URL+"/statsz", nil, &stats)
	if _, ok := s.Table("flights"); !ok || len(stats.Tables) != 1 {
		t.Fatalf("after a failed drop: catalog has table = %v, /statsz lists %d tables; want both to keep it", ok, len(stats.Tables))
	}
	if n := tablesAfterRestart(); n != 1 {
		t.Fatalf("restart after a failed drop recovered %d tables, want 1", n)
	}
	fs.failDrop = false
	if code := doJSON(t, http.MethodDelete, srv.URL+"/tables/flights", nil, nil); code != http.StatusOK {
		t.Fatalf("retried drop answered HTTP %d, want 200", code)
	}
	if n := tablesAfterRestart(); n != 0 {
		t.Fatalf("restart after the drop recovered %d tables, want 0", n)
	}
}

// TestConcurrentCreateKeepsWinnerDurable: racing creates of one name
// leave exactly one winner whose persisted state survives — the loser
// must not clean up (or overwrite) the winner's snapshot.
func TestConcurrentCreateKeepsWinnerDurable(t *testing.T) {
	st := store.NewMem()
	s := NewWithConfig(Config{Store: st})
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.CreateTable(durableSpec())
		}(i)
	}
	wg.Wait()
	wins := 0
	for _, err := range errs {
		if err == nil {
			wins++
		} else if !errors.Is(err, ErrTableExists) {
			t.Fatalf("unexpected create error: %v", err)
		}
	}
	if wins != 1 {
		t.Fatalf("%d creates won", wins)
	}
	if _, err := st.Load("flights"); err != nil {
		t.Fatalf("winner's durable state gone: %v", err)
	}
	// And the winner keeps accepting durable batches.
	e, _ := s.table("flights")
	if _, err := s.applyBatch(e, BatchRequest{Add: []RowSpec{{TO: []int64{1, 1}, PO: []string{"a"}}}}); err != nil {
		t.Fatal(err)
	}
}
