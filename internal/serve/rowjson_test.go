package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzRowJSON: the hand-written row encoder writes exactly what
// encoding/json writes — for a SkylineRow (AppendRow) and for the "row"
// StreamRecord around it (RowRecord) — whatever the labels hold (quotes,
// backslashes, control bytes, HTML characters, U+2028/U+2029, invalid
// UTF-8), whatever the TO values (int64 extremes), with PO nil or
// empty, Shard and Key nil or set, and any Emission and Elapsed; a
// non-finite Elapsed fails both.
func FuzzRowJSON(f *testing.F) {
	f.Add(`a"q`, `b\s`, "\x00\x1f\x7f", 3, int64(math.MinInt64), int64(math.MaxInt64), uint8(2), true, -1, true, int64(-7), 0, 0.0)
	f.Add("<p>&amp;", "  ", "\xff\xfe", 0, int64(0), int64(-1), uint8(1), false, 0, false, int64(0), 0, 1e-7)
	f.Add("alpha", "", "é", 1<<40, int64(1<<30), int64(42), uint8(0), true, 7, true, int64(math.MaxInt64), 12, 1e21)
	f.Add("x", "y", "z", -5, int64(math.MaxInt64), int64(math.MinInt64), uint8(3), false, 0, true, int64(math.MinInt64), -3, -0.25)
	f.Add("x", "y", "z", 9, int64(1), int64(2), uint8(2), false, 0, false, int64(0), 1, 123456.789)
	f.Fuzz(func(t *testing.T, l0, l1, l2 string, row int, to0, to1 int64, shape uint8, hasShard bool, shard int,
		hasKey bool, key int64, emission int, elapsed float64) {
		sc, err := NewSchema([]string{"t0", "t1"}, []OrderSpec{
			{Name: "p", Values: []string{l0, l1}},
			{Name: "q", Values: []string{l2}},
		})
		if err != nil {
			t.Skip() // only the column names can collide, and they are fixed
		}
		want := SkylineRow{Row: row, TO: []int64{to0, to1}}
		var po []int32
		switch shape % 4 {
		case 0: // PO nil
		case 1: // PO empty
			want.PO, po = []string{}, []int32{}
		case 2:
			want.PO, po = []string{l1, l2}, []int32{1, 0}
		case 3: // TO nil
			want.TO = nil
			want.PO, po = []string{l0, l2}, []int32{0, 0}
		}
		if hasShard {
			want.Shard = &shard
		}
		wantRow, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendRow(nil, sc, row, want.TO, po, want.Shard); !bytes.Equal(got, wantRow) {
			t.Fatalf("AppendRow:\n got  %s\n want %s", got, wantRow)
		}

		rec := StreamRecord{Type: "row", Row: &want, Emission: emission, Elapsed: elapsed}
		if hasKey {
			rec.Key = &key
		}
		var wantRec bytes.Buffer
		wantErr := json.NewEncoder(&wantRec).Encode(&rec)
		got, err := RowRecord(sc, row, want.TO, po, want.Shard, FrameInfo{Emission: emission, Elapsed: elapsed, Key: rec.Key})
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("RowRecord error %v, encoding/json error %v", err, wantErr)
		}
		if err != nil {
			if err.Error() != wantErr.Error() {
				t.Fatalf("RowRecord error %q, encoding/json error %q", err, wantErr)
			}
			return
		}
		if !bytes.Equal(got.encoded.b, wantRec.Bytes()) {
			t.Fatalf("RowRecord:\n got  %s\n want %s", got.encoded.b, wantRec.Bytes())
		}
	})
}

// raceEnabled reports a -race build (race_enabled_test.go).
var raceEnabled bool

// TestWarmReadAllocsFlat: a warm buffered full read — a memo hit —
// makes as many allocations for a 700-row skyline as for a 100-row one:
// nothing on the read path allocates per row; and no more than a fixed
// ceiling.
func TestWarmReadAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race, sync.Pool drops some of what it is given, so pooled buffers regrow")
	}
	s := New(8)
	allocs := make(map[int]float64)
	for _, n := range []int{100, 700} {
		// Anti-correlated TO values with tricky labels: every row is a
		// skyline member.
		spec := TableSpec{
			Name:      "flat",
			TOColumns: []string{"x", "y"},
			Orders:    []OrderSpec{{Name: "c", Values: []string{`a"<b>`, " "}}},
		}
		for i := range n {
			spec.Rows = append(spec.Rows, RowSpec{TO: []int64{int64(i), int64(n - i)}, PO: []string{spec.Orders[0].Values[i%2]}})
		}
		if _, err := s.DropTable("flat"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.CreateTable(spec); err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		read := func() {
			w := &discardResponseWriter{}
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/tables/flat/query", strings.NewReader("{}")))
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/tables/flat/query", strings.NewReader(`{"explain": true}`)))
		var resp QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Count != n || len(resp.Skyline) != n {
			t.Fatalf("n=%d: skyline of %d rows (%d delivered)", n, resp.Count, len(resp.Skyline))
		}
		read() // warm: the memo holds the skyline
		allocs[n] = testing.AllocsPerRun(50, read)
	}
	if allocs[100] != allocs[700] {
		t.Fatalf("warm full read: %v allocations at 100 rows, %v at 700", allocs[100], allocs[700])
	}
	// A memo hit plans nothing it does not use: no domain sizes, no
	// identity dimension lists, no order closure (37 allocations before
	// they left the path, 33 after).
	const ceiling = 33
	if allocs[100] > ceiling {
		t.Fatalf("warm full read: %v allocations, ceiling %d", allocs[100], ceiling)
	}
}
