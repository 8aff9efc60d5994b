package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"reflect"
	"slices"
	"testing"
	"unicode/utf8"
)

// decodeSchema is the schema FuzzRowJSONDecode reads arbitrary bytes
// against: two TO columns and two PO columns whose labels need escapes,
// non-ASCII bytes or nothing.
func decodeSchema(t testing.TB) *Schema {
	sc, err := NewSchema([]string{"t0", "t1"}, []OrderSpec{
		{Name: "p", Values: []string{"a", `q"<>&`, "é", "\u2028"}},
		{Name: "q", Values: []string{"0", "1", "\x7f", ""}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// wireRow is a decoded Row with its PO ids rendered back to labels:
// what encoding/json's SkylineRow holds for the same bytes.
func wireRow(sc *Schema, r *Row) SkylineRow {
	out := SkylineRow{Row: r.Row, TO: r.TO}
	if r.PO != nil {
		out.PO = make([]string, len(r.PO))
		for d, id := range r.PO {
			out.PO[d], _ = sc.POValueLabel(d, int(id))
		}
	}
	if r.HasShard {
		out.Shard = &r.Shard
	}
	return out
}

// sameRows compares two row lists field by field, nil and empty apart.
func sameRows(got, want []SkylineRow) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Row != w.Row || (g.TO == nil) != (w.TO == nil) || (g.PO == nil) != (w.PO == nil) ||
			!slices.Equal(g.TO, w.TO) || !slices.Equal(g.PO, w.PO) ||
			(g.Shard == nil) != (w.Shard == nil) || g.Shard != nil && *g.Shard != *w.Shard {
			return false
		}
	}
	return true
}

// decodeAll runs the hand decoder kind selects over data (0: a
// buffered response, 1: a stream line, 2: a /domcount body) and, whenever one accepts it, checks that encoding/json reads
// the same bytes without error into the same rows and the same
// everything else.
func decodeAll(t *testing.T, sc *Schema, kind uint8, data []byte) {
	t.Helper()
	dec := sc.NewRowDecoder()
	switch kind {
	case 0:
		var rows []SkylineRow
		head, tail, err := dec.Response(data, func(r *Row) error {
			rows = append(rows, wireRow(sc, r))
			return nil
		})
		if err != nil {
			return
		}
		var want QueryResponse
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("hand decoder accepted %q, encoding/json refuses it: %v", data, err)
		}
		if !sameRows(rows, want.Skyline) {
			t.Fatalf("%q:\n hand rows %+v\n json rows %+v", data, rows, want.Skyline)
		}
		if !reflect.DeepEqual(head, want.ResponseHead) || !reflect.DeepEqual(tail, want.ResponseTail) {
			t.Fatalf("%q:\n hand %+v %+v\n json %+v %+v", data, head, tail, want.ResponseHead, want.ResponseTail)
		}
	case 1:
		r, key, ok, err := dec.Frame(data)
		if !ok || err != nil {
			return
		}
		var want StreamRecord
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("hand decoder accepted %q, encoding/json refuses it: %v", data, err)
		}
		if want.Type != "row" || want.Row == nil {
			t.Fatalf("hand decoder read a row from %q, encoding/json a %q record", data, want.Type)
		}
		if got := wireRow(sc, &r); !sameRows([]SkylineRow{got}, []SkylineRow{*want.Row}) {
			t.Fatalf("%q:\n hand row %+v\n json row %+v", data, got, *want.Row)
		}
		if (key == nil) != (want.Key == nil) || key != nil && *key != *want.Key {
			t.Fatalf("%q: hand key %v, json key %v", data, key, want.Key)
		}
	case 2:
		req, rows, err := dec.DomCount(data)
		if err != nil {
			return
		}
		var want DomCountRequest
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("hand decoder accepted %q, encoding/json refuses it: %v", data, err)
		}
		got := make([]SkylineRow, len(rows))
		for i := range rows {
			got[i] = wireRow(sc, &rows[i])
		}
		wantRows := make([]SkylineRow, len(want.Rows))
		for i, r := range want.Rows {
			wantRows[i] = SkylineRow{TO: r.TO, PO: r.PO}
		}
		if !sameRows(got, wantRows) {
			t.Fatalf("%q:\n hand rows %+v\n json rows %+v", data, got, wantRows)
		}
		want.Rows = nil
		if !reflect.DeepEqual(req, want) {
			t.Fatalf("%q:\n hand %+v\n json %+v", data, req, want)
		}
	}
}

// FuzzRowJSONDecode: the hand-written row decoder reads back exactly
// what the hand-written encoder writes (a buffered response's rows, a
// "row" stream record, a /domcount body) over FuzzRowJSON's hostile
// labels and int64 extremes, and encoding/json reads those bytes the
// same way; and over arbitrary bytes, whatever the decoder accepts
// encoding/json accepts too, as the same rows.
func FuzzRowJSONDecode(f *testing.F) {
	f.Add(`a"q`, `b\s`, "\x00\x1f\x7f", 3, int64(math.MinInt64), int64(math.MaxInt64), uint8(2), true, -1, true, int64(-7), 0, 0.0, uint8(3), []byte(nil))
	f.Add("<p>&amp;", "  ", "é", 0, int64(0), int64(-1), uint8(1), false, 0, false, int64(0), 0, 1e-7, uint8(3), []byte(nil))
	f.Add("alpha", "", "\u2028", 1<<40, int64(1<<30), int64(42), uint8(0), true, 7, true, int64(math.MaxInt64), 12, 1e21, uint8(3), []byte(nil))
	f.Add("x", "y", "z", -5, int64(math.MaxInt64), int64(math.MinInt64), uint8(3), false, 0, true, int64(math.MinInt64), -3, -0.25, uint8(3), []byte(nil))
	for kind, data := range [][]byte{
		[]byte(`{"table":"t","version":3,"rows":9,"count":2,"skyline":[{"row":1,"to":[5,-0],"po":["a","\u0031"]},{"row":2,"to":null,"shard":null}],"metrics":{"readIOs":1},"cacheHit":true}`),
		[]byte(`{"type":"row","row":{"row":7,"to":[1,2],"po":["q\"\u003c\u003e\u0026","\u007f"],"shard":1},"emission":3,"elapsedSeconds":1.5e-7,"key":12}` + "\n"),
		[]byte(`{"rows":[{"to":[0,1073741824],"po":["\u00e9",""]},{"to":[],"po":[]}],"subspace":["t0"],"rank":"dpidp"}`),
		[]byte(` { "skyline" : [ { "po" : [ "\u2028" , "0" ] , "row" : 1e0 } ] , "Skyline" : null } `),
		[]byte(`{"type":"row","key":null,"row":{"to":[9223372036854775807,-9223372036854775808]},"type":"row"}`),
		[]byte(`{"rows":null,"ROWS":[],"where":[{"col":"t0","le":1}]}`),
	} {
		f.Add("", "", "", 0, int64(0), int64(0), uint8(0), false, 0, false, int64(0), 0, 0.0, uint8(kind), data)
	}
	fixed := decodeSchema(f)
	f.Fuzz(func(t *testing.T, l0, l1, l2 string, row int, to0, to1 int64, shape uint8, hasShard bool, shard int,
		hasKey bool, key int64, emission int, elapsed float64, kind uint8, data []byte) {
		if kind %= 4; kind < 3 {
			decodeAll(t, fixed, kind, data)
			return
		}
		if !utf8.ValidString(l0) || !utf8.ValidString(l1) || !utf8.ValidString(l2) {
			t.Skip() // JSON carries such a label as U+FFFD: no schema label matches it
		}
		sc, err := NewSchema([]string{"t0", "t1"}, []OrderSpec{
			{Name: "p", Values: []string{l0, l1}},
			{Name: "q", Values: []string{l2}},
		})
		if err != nil {
			t.Skip()
		}
		want := SkylineRow{Row: row, TO: []int64{to0, to1}}
		var po []int32
		switch shape % 3 {
		case 0:
			want.PO, po = []string{l0, l2}, []int32{0, 0}
		case 1:
			want.PO, po = []string{l1, l2}, []int32{1, 0}
		case 2: // TO nil
			want.TO = nil
			want.PO, po = []string{l1, l2}, []int32{1, 0}
		}
		if hasShard {
			want.Shard = &shard
		}

		// A buffered response carrying the row twice.
		rec := httptest.NewRecorder()
		WriteQueryResponse(rec, ResponseHead{Table: l0, Version: to0, Rows: row, Count: 2}, 2, func(b []byte, i int) []byte {
			return AppendRow(b, sc, row, want.TO, po, want.Shard)
		}, &ResponseTail{Algo: l1})
		body := rec.Body.Bytes()
		var got []SkylineRow
		head, tail, err := sc.NewRowDecoder().Response(body, func(r *Row) error {
			got = append(got, wireRow(sc, r))
			return nil
		})
		if err != nil {
			t.Fatalf("Response(%s): %v", body, err)
		}
		if !sameRows(got, []SkylineRow{want, want}) || head.Table != l0 || head.Version != to0 || tail.Algo != l1 {
			t.Fatalf("Response(%s): %+v %+v %+v", body, got, head, tail)
		}
		decodeAll(t, sc, 0, body)

		// The row's stream record.
		info := FrameInfo{Emission: emission, Elapsed: elapsed}
		if hasKey {
			info.Key = &key
		}
		frame, err := RowRecord(sc, row, want.TO, po, want.Shard, info)
		if err == nil {
			line := frame.encoded.b
			r, k, ok, err := sc.NewRowDecoder().Frame(line)
			if !ok || err != nil {
				t.Fatalf("Frame(%s): ok %v, %v", line, ok, err)
			}
			if g := wireRow(sc, &r); !sameRows([]SkylineRow{g}, []SkylineRow{want}) || (k == nil) != !hasKey || hasKey && *k != key {
				t.Fatalf("Frame(%s): %+v key %v", line, g, k)
			}
			decodeAll(t, sc, 1, line)
		}

		// A /domcount body with the row as its one candidate.
		dreq := DomCountRequest{Subspace: []string{l0}, Rank: l2}
		b, err := AppendDomCount(nil, sc, dreq, 1, func(int) ([]int64, []int32) { return want.TO, po })
		if err != nil {
			t.Fatal(err)
		}
		wantBody, _ := json.Marshal(DomCountRequest{Rows: []RowSpec{{TO: want.TO, PO: want.PO}}, Subspace: dreq.Subspace, Rank: dreq.Rank})
		if !bytes.Equal(b, wantBody) {
			t.Fatalf("AppendDomCount:\n got  %s\n want %s", b, wantBody)
		}
		gotReq, rows, err := sc.NewRowDecoder().DomCount(b)
		if err != nil || len(rows) != 1 || !reflect.DeepEqual(gotReq, dreq) {
			t.Fatalf("DomCount(%s): %+v %d rows, %v", b, gotReq, len(rows), err)
		}
		if g := wireRow(sc, &rows[0]); !sameRows([]SkylineRow{g}, []SkylineRow{{TO: want.TO, PO: want.PO}}) {
			t.Fatalf("DomCount(%s): %+v", b, g)
		}
		decodeAll(t, sc, 2, b)
	})
}

// TestDecodeRefusals: inputs encoding/json reads differently, or that
// no build writes, are refused rather than read some other way.
func TestDecodeRefusals(t *testing.T) {
	sc := decodeSchema(t)
	for _, body := range []string{
		`{"skyline":[{"row":1,"Row":2}]}`,                   // case-folded member
		`{"skyline":[{"row":1,"row":2}]}`,                   // repeated member
		`{"skyline":[{"ro\u0077":1}]}`,                      // escaped member name
		`{"skyline":[{"row":1,"extra":0}]}`,                 // unknown member
		`{"skyline":[{"to":[1,null]}]}`,                     // null inside an array
		`{"skyline":[{"to":[1.0]}]}`,                        // fraction where an integer goes
		`{"skyline":[{"to":[1e2]}]}`,                        // exponent where an integer goes
		`{"skyline":[{"to":[9223372036854775808]}]}`,        // int64 overflow
		`{"skyline":[{"po":["a","0","a"]}]}`,                // more labels than PO columns
		`{"skyline":[{"po":["zz"]}]}`,                       // unknown label
		`{"skyline":[],"skyline":[]}`,                       // repeated array
		`{"skyline":[],"SKYLINE":null}`,                     // the array again, spelled another way
		`{"skyline":[]} x`,                                  // data after the value
		`{"skyline":[{"to":[01]}]}`,                         // not JSON
		`{"skyline":[{"po":["\x01"]}]}`,                     // control character in a string
		`{"skyline":[` + `{"row":1}` + `,]}`,                // trailing comma
		`{"skyline":[],"metrics":` + deep(maxDepth+2) + `}`, // nesting past the bound
	} {
		if _, _, err := sc.NewRowDecoder().Response([]byte(body), func(*Row) error { return nil }); err == nil {
			t.Errorf("Response(%s) accepted", body)
		}
	}
	for _, line := range []string{
		`{"type":"row"}`, // no row
		`{"type":"row","row":{"row":1},"table":"t"}`,            // a header member
		`{"type":"row","row":{"row":1},"key":1.5}`,              // fractional key
		`{"type":"row","row":{"row":1},"elapsedSeconds":1e999}`, // float overflow
		`{"type":"row","row":{"row":1},"row":{"row":2}}`,        // repeated row
	} {
		if _, _, ok, err := sc.NewRowDecoder().Frame([]byte(line)); !ok || err == nil {
			t.Errorf("Frame(%s): ok %v, err %v", line, ok, err)
		}
	}
	for _, line := range []string{`{"type":"header","table":"t"}`, `{"row":{"row":1},"type":"row"}`, `{"type":"r\u006fw"}`} {
		if _, _, ok, err := sc.NewRowDecoder().Frame([]byte(line)); ok || err != nil {
			t.Errorf("Frame(%s): ok %v, err %v; want it left to encoding/json", line, ok, err)
		}
	}
}

func deep(n int) string {
	return fmt.Sprintf("%s%s", bytes.Repeat([]byte("["), n), bytes.Repeat([]byte("]"), n))
}
