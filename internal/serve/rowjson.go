package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
)

// Every skyline row reaches the wire through this file, on a node and
// on a coordinator: the rows of a buffered response and every "row"
// record of a stream are appended by hand, byte for byte what
// encoding/json writes for the SkylineRow and StreamRecord they stand
// for. Labels are the one part whose escaping is not trivial, so
// encoding/json quotes each of them once per schema (Schema.quoted) and
// rows copy those bytes by value id; integers go through strconv. What
// surrounds the rows — a response's metrics, plan and cluster metadata,
// and the header, heartbeat, trailer and error records — stays
// encoding/json's.

// quoteLabels quotes every value label of every order the way
// encoding/json writes a string (HTML-safe, invalid UTF-8 replaced).
func quoteLabels(orders []OrderSpec) [][][]byte {
	quoted := make([][][]byte, len(orders))
	for d, spec := range orders {
		quoted[d] = make([][]byte, len(spec.Values))
		for i, v := range spec.Values {
			quoted[d][i], _ = json.Marshal(v) // a string always marshals
		}
	}
	return quoted
}

// AppendRow appends the JSON encoding/json writes for the SkylineRow
// {Row: row, TO: to, PO: the labels of po, Shard: shard}. po holds one
// value id of the schema's orders per PO column.
func AppendRow[T int32 | int64](b []byte, sc *Schema, row int, to []T, po []int32, shard *int) []byte {
	b = append(b, `{"row":`...)
	b = strconv.AppendInt(b, int64(row), 10)
	b = appendValues(append(b, ','), sc, to, po)
	if shard != nil {
		b = append(b, `,"shard":`...)
		b = strconv.AppendInt(b, int64(*shard), 10)
	}
	return append(b, '}')
}

// appendValues appends a row's "to" member and, unless po is empty, its
// "po" member.
func appendValues[T int32 | int64](b []byte, sc *Schema, to []T, po []int32) []byte {
	b = append(b, `"to":`...)
	if to == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, v := range to {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(v), 10)
		}
		b = append(b, ']')
	}
	if len(po) > 0 {
		b = append(b, `,"po":[`...)
		for d, id := range po {
			if d > 0 {
				b = append(b, ',')
			}
			b = append(b, sc.quoted[d][id]...)
		}
		b = append(b, ']')
	}
	return b
}

// AppendDomCount appends the JSON json.Marshal writes for req with its
// Rows replaced by n RowSpecs, row i's TO values and PO value ids given
// by row(i): the rows by hand, the other members by encoding/json. No
// rows is "rows":null, as for a nil Rows.
func AppendDomCount(b []byte, sc *Schema, req DomCountRequest, n int, row func(i int) (to []int64, po []int32)) ([]byte, error) {
	req.Rows = nil
	rest, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return append(b, rest...), nil
	}
	b = append(b, `{"rows":[`...)
	for i := range n {
		if i > 0 {
			b = append(b, ',')
		}
		to, po := row(i)
		b = append(appendValues(append(b, '{'), sc, to, po), '}')
	}
	// rest opens with the nil Rows; the members after it follow ours.
	return append(append(b, ']'), rest[len(`{"rows":null`):]...), nil
}

// FrameInfo is what a "row" record carries besides its row: the
// 0-based emission index, the seconds from query start to
// certification, and the row's SFS key (nil on replayed streams).
type FrameInfo struct {
	Emission int
	Elapsed  float64
	Key      *int64
}

// RowRecord returns the "row" StreamRecord of one row (AppendRow's
// arguments), encoded here, on the producer's goroutine: the stream
// writer sends the encoded line as it is. Only a non-finite Elapsed
// fails, as it fails encoding/json.
func RowRecord[T int32 | int64](sc *Schema, row int, to []T, po []int32, shard *int, info FrameInfo) (StreamRecord, error) {
	bd := getBody()
	b := append(bd.b, `{"type":"row","row":`...)
	b = AppendRow(b, sc, row, to, po, shard)
	if info.Emission != 0 {
		b = append(b, `,"emission":`...)
		b = strconv.AppendInt(b, int64(info.Emission), 10)
	}
	if info.Elapsed != 0 {
		b = append(b, `,"elapsedSeconds":`...)
		var err error
		if b, err = appendFloat(b, info.Elapsed); err != nil {
			bodyPool.Put(bd)
			return StreamRecord{}, err
		}
	}
	if info.Key != nil {
		b = append(b, `,"key":`...)
		b = strconv.AppendInt(b, *info.Key, 10)
	}
	bd.b = append(b, "}\n"...)
	return StreamRecord{Type: "row", encoded: bd}, nil
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// 'f' form, or 'e' below 1e-6 and from 1e21 up, with a two-digit
// negative exponent shortened (e-07 → e-7).
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// body is a pooled response buffer; as an io.Writer it appends, so
// encoding/json can encode into it.
type body struct{ b []byte }

func (bd *body) Write(p []byte) (int, error) {
	bd.b = append(bd.b, p...)
	return len(p), nil
}

// bodyPool pools the encode buffers of every response and every
// streamed record, so the hot path reuses buffer storage instead of
// growing a fresh one per call.
var bodyPool = sync.Pool{New: func() any { return new(body) }}

func getBody() *body {
	bd := bodyPool.Get().(*body)
	bd.b = bd.b[:0]
	return bd
}

// WriteQueryResponse writes one buffered query answer: the JSON
// encoding/json writes for QueryResponse{head, n rows, tail}, with the
// head and the rows (row appends row i through AppendRow) written by
// hand and the tail by encoding/json, in one Write. A tail that fails
// to encode is a 500.
func WriteQueryResponse(w http.ResponseWriter, head ResponseHead, n int, row func(b []byte, i int) []byte, tail *ResponseTail) {
	bd := getBody()
	defer bodyPool.Put(bd)
	b := append(bd.b, `{"table":`...)
	name, _ := json.Marshal(head.Table) // a string always marshals
	b = append(b, name...)
	b = append(b, `,"version":`...)
	b = strconv.AppendInt(b, head.Version, 10)
	b = append(b, `,"rows":`...)
	b = strconv.AppendInt(b, int64(head.Rows), 10)
	b = append(b, `,"count":`...)
	b = strconv.AppendInt(b, int64(head.Count), 10)
	b = append(b, `,"skyline":[`...)
	for i := range n {
		if i > 0 {
			b = append(b, ',')
		}
		b = row(b, i)
	}
	bd.b = append(b, ']')
	// The tail encodes as an object that always opens with "metrics";
	// its '{' becomes the comma after the skyline.
	open := len(bd.b)
	if err := json.NewEncoder(bd).Encode(tail); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	bd.b[open] = ','
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(bd.b)
}
