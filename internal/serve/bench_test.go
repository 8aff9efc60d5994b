package serve

import (
	"fmt"
	"net/http"
	"testing"
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
