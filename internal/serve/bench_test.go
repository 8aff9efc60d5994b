package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/exp"
)

// discardResponseWriter satisfies http.ResponseWriter without keeping
// the body, so encode-path benchmarks measure the encoder and its
// buffer discipline rather than the sink.
type discardResponseWriter struct{ h http.Header }

func (d *discardResponseWriter) Header() http.Header {
	if d.h == nil {
		d.h = make(http.Header)
	}
	return d.h
}

func (d *discardResponseWriter) Write(p []byte) (int, error) { return len(p), nil }

func (d *discardResponseWriter) WriteHeader(int) {}

// benchSchema is the schema of the encode benchmarks' rows: three TO
// columns and two PO columns.
func benchSchema(b *testing.B) *Schema {
	sc, err := NewSchema([]string{"a", "b", "c"}, []OrderSpec{
		{Name: "p", Values: []string{"alpha", "beta"}},
		{Name: "q", Values: []string{"alpha", "beta"}},
	})
	if err != nil {
		b.Fatal(err)
	}
	return sc
}

// BenchmarkWriteJSON measures the buffered response encode path: a
// query answer of n rows written through WriteQueryResponse, the rows
// appended by hand from stored values and the tail encoded by
// encoding/json into the pooled buffer. ns/row is the time per
// delivered row.
func BenchmarkWriteJSON(b *testing.B) {
	sc := benchSchema(b)
	for _, n := range []int{8, 256} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			to := make([][]int32, n)
			for i := range to {
				to[i] = []int32{int32(i), int32(n - i), 42}
			}
			po := []int32{0, 1}
			head := ResponseHead{Table: "bench", Version: 7, Rows: n * 3, Count: n}
			w := &discardResponseWriter{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				WriteQueryResponse(w, head, n, func(buf []byte, r int) []byte {
					return AppendRow(buf, sc, r, to[r], po, nil)
				}, &ResponseTail{})
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
		})
	}
}

// BenchmarkStreamSend measures the per-record streamed encode path: one
// row record encoded by RowRecord and framed as NDJSON, the cost paid
// once per emitted row on every streamed response.
func BenchmarkStreamSend(b *testing.B) {
	sc := benchSchema(b)
	shard := 1
	to, po := []int64{3, 997, 42}, []int32{0, 1}
	info := FrameInfo{Emission: 12, Elapsed: 0.0042}
	sw := &streamWriter{w: &discardResponseWriter{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := RowRecord(sc, 12, to, po, &shard, info)
		if err != nil {
			b.Fatal(err)
		}
		if err := sw.send(&rec); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/row")
}

// legBody is a buffered query answer of n rows the way a shard writes
// one for a coordinator's leg: the paper's default shape, two TO
// columns and two PO columns of 64 numeric labels each.
func legBody(b *testing.B, n int) (*Schema, []byte) {
	var orders []OrderSpec
	for d := range 2 {
		spec := OrderSpec{Name: fmt.Sprintf("po_%d", d)}
		for v := range 64 {
			spec.Values = append(spec.Values, fmt.Sprint(v))
		}
		orders = append(orders, spec)
	}
	sc, err := NewSchema([]string{"to_0", "to_1"}, orders)
	if err != nil {
		b.Fatal(err)
	}
	rec := httptest.NewRecorder()
	head := ResponseHead{Table: "bench", Version: 7, Rows: 4000, Count: n}
	WriteQueryResponse(rec, head, n, func(buf []byte, r int) []byte {
		to := []int32{int32(r * 977 % 100000), int32(100000 - r*977%100000)}
		return AppendRow(buf, sc, r*4, to, []int32{int32(r % 64), int32(r * 7 % 64)}, nil)
	}, &ResponseTail{Algo: "sfs", CacheHit: true})
	return sc, rec.Body.Bytes()
}

// BenchmarkDecodeLeg measures the coordinator's read of one buffered
// shard leg: a 1 011-row answer read by RowDecoder.Response, every row
// resolved to TO values and PO value ids. ns/row is the time per row.
func BenchmarkDecodeLeg(b *testing.B) {
	const n = 1011
	sc, body := legBody(b, n)
	dec := sc.NewRowDecoder()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := 0
		if _, _, err := dec.Response(body, func(*Row) error { rows++; return nil }); err != nil || rows != n {
			b.Fatalf("%d rows, %v", rows, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
}

// BenchmarkWarmTopK measures a warm dp-idp top-10 read through the
// handler on serve-churn's table shape: the paper's static
// configuration (2 TO + 2 PO, independent) at N = 2 000, its skyline
// memoised and its score index built, so every read is an index hit.
func BenchmarkWarmTopK(b *testing.B) {
	cfg := exp.StaticDefaults(1)
	cfg.N = 2000
	s := New(8)
	if _, err := s.CreateTable(SpecFromDataset("t", exp.BuildDataset(cfg))); err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	read := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/tables/t/query", strings.NewReader(body)))
		return rec
	}
	read(`{"topK": 10, "rank": "dpidp"}`) // cold: memoises the skyline, builds the index
	var resp QueryResponse
	if err := json.Unmarshal(read(`{"topK": 10, "rank": "dpidp", "explain": true}`).Body.Bytes(), &resp); err != nil {
		b.Fatal(err)
	}
	if len(resp.Skyline) != 10 || resp.Plan == nil || resp.Plan.RankedFrom != "index" {
		b.Fatalf("warm top-k delivered %d rows, plan %+v", len(resp.Skyline), resp.Plan)
	}
	w := &discardResponseWriter{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/tables/t/query", strings.NewReader(`{"topK": 10, "rank": "dpidp"}`)))
	}
}
