package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/plan"
)

// Streamed delivery: a query's rows go out as NDJSON (or SSE) records
// while it certifies them — header, rows, heartbeats while the producer
// is silent, then a trailer or an error. The first row is flushed
// alone, for time to first row; every later row goes out in one flush
// with the rows the producer already has waiting behind it, so a burst
// (a coordinator certifies hundreds of rows at once when a shard leg
// completes, and a warm leg replays its memo) costs one flush, not one
// per row.

// DefaultStreamHeartbeat is the idle interval between heartbeat records
// on a streamed response when the server config does not override it.
// Heartbeats keep proxies and clients from timing out a stream whose
// query is still certifying its next row.
const DefaultStreamHeartbeat = 10 * time.Second

// WantsStream reports whether the request asked for a streamed response
// (?stream=1 / ?stream=true).
func WantsStream(r *http.Request) bool {
	v := r.URL.Query().Get("stream")
	return v == "1" || v == "true"
}

// wantsSSE reports whether a streamed response should use SSE framing
// instead of NDJSON.
func wantsSSE(r *http.Request) bool {
	if r.URL.Query().Get("sse") == "1" {
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), "text/event-stream")
}

// streamWriter frames StreamRecords onto the response: one JSON object
// per line (NDJSON) or one SSE data event per record. write only
// buffers a record; flush pushes everything buffered to the client, and
// send does both.
type streamWriter struct {
	w   http.ResponseWriter
	f   http.Flusher // nil when the ResponseWriter cannot flush
	sse bool
}

func newStreamWriter(w http.ResponseWriter, r *http.Request) *streamWriter {
	sw := &streamWriter{w: w, sse: wantsSSE(r)}
	if f, ok := w.(http.Flusher); ok {
		sw.f = f
	}
	if sw.sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	sw.flush()
	return sw
}

// send writes one record and flushes it.
func (sw *streamWriter) send(rec *StreamRecord) error {
	if err := sw.write(rec); err != nil {
		return err
	}
	sw.flush()
	return nil
}

func (sw *streamWriter) flush() {
	if sw.f != nil {
		sw.f.Flush()
	}
}

// write encodes one record through the pooled buffer onto the response,
// without flushing.
func (sw *streamWriter) write(rec *StreamRecord) error {
	buf := encBufPool.Get().(*bytes.Buffer)
	defer encBufPool.Put(buf)
	buf.Reset()
	if sw.sse {
		buf.WriteString("data: ")
	}
	if err := json.NewEncoder(buf).Encode(rec); err != nil {
		return err
	}
	if sw.sse {
		buf.WriteByte('\n') // Encode wrote one \n; SSE events end with a blank line
	}
	_, err := sw.w.Write(buf.Bytes())
	return err
}

// StreamResponse drives a streamed query response: the header record
// first, then every record produce emits, heartbeats whenever the
// producer stays silent for a full heartbeat interval, and finally the
// trailer produce returns — or an "error" record if it fails. produce
// runs on its own goroutine against a context that is canceled when the
// client disconnects (or stops reading), so a torn-down stream releases
// the query's scan instead of computing into a closed socket; its emit
// returns the cancellation as an error, and StreamResponse always waits
// for produce to return before it does. Rows are flushed by the burst
// rule above; the row channel is unbuffered, so produce never runs
// ahead of the client and its trailer cannot overtake a row. Exported
// for the cluster coordinator, whose streamed scatter/gather reuses the
// exact framing.
func StreamResponse(w http.ResponseWriter, r *http.Request, heartbeat time.Duration, header StreamRecord,
	produce func(ctx context.Context, emit func(StreamRecord) error) (StreamRecord, error)) {
	if heartbeat <= 0 {
		heartbeat = DefaultStreamHeartbeat
	}
	sw := newStreamWriter(w, r)
	if err := sw.send(&header); err != nil {
		return
	}

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	rows := make(chan StreamRecord)
	type outcome struct {
		trailer StreamRecord
		err     error
	}
	done := make(chan outcome, 1)
	go func() {
		trailer, err := produce(ctx, func(rec StreamRecord) error {
			select {
			case rows <- rec:
				return nil
			case <-ctx.Done():
				return fmt.Errorf("serve: stream canceled: %w", ctx.Err())
			}
		})
		done <- outcome{trailer: trailer, err: err}
	}()

	ticker := time.NewTicker(heartbeat)
	defer ticker.Stop()
	firstRow := true
	for {
		select {
		case rec := <-rows:
			err := sw.write(&rec)
			if err == nil && !firstRow {
				err = writeWaiting(sw, rows)
			}
			firstRow = false
			if err != nil {
				cancel()
				<-done // drain the producer before returning the handler
				return
			}
			sw.flush()
			ticker.Reset(heartbeat)
		case <-ticker.C:
			if err := sw.send(&StreamRecord{Type: "heartbeat"}); err != nil {
				cancel()
				<-done
				return
			}
		case out := <-done:
			if out.err != nil {
				_ = sw.send(&StreamRecord{Type: "error", Error: out.err.Error()})
				return
			}
			_ = sw.send(&out.trailer)
			return
		}
	}
}

// writeWaiting writes every row the producer already has blocked on
// rows, stopping as soon as none is waiting.
func writeWaiting(sw *streamWriter, rows <-chan StreamRecord) error {
	for {
		select {
		case rec := <-rows:
			if err := sw.write(&rec); err != nil {
				return err
			}
		default:
			return nil
		}
	}
}

// streamRowRecord renders one emitted row as its stream frame.
func streamRowRecord(snap *snapshot, row int, index int, elapsed time.Duration) StreamRecord {
	to, po := snap.table.RowValues(row)
	return StreamRecord{
		Type:     "row",
		Row:      &SkylineRow{Row: row, TO: to, PO: po},
		Emission: index,
		Elapsed:  elapsed.Seconds(),
	}
}

// streamQuery is postQuery's ?stream=1 delivery: header, one row
// record per emission the executor hands over (as rows certify, with
// the row's SFS key, on the progressive routes), and a trailer carrying
// the buffered response's tail.
func (s *Server) streamQuery(w http.ResponseWriter, r *http.Request, e *tableEntry, snap *snapshot, rq readQuery) {
	header := StreamRecord{Type: "header", Table: e.name, Version: snap.version, Rows: snap.table.Len()}
	StreamResponse(w, r, s.streamHeartbeat, header, func(ctx context.Context, emit func(StreamRecord) error) (StreamRecord, error) {
		res, explain, err := s.execute(ctx, e, snap, &rq, func(row plan.StreamRow) error {
			if rq.limit > 0 && row.Index >= rq.limit {
				return nil
			}
			rec := streamRowRecord(snap, int(row.ID), row.Index, row.Elapsed)
			rec.Key = row.Key
			return emit(rec)
		})
		if err != nil {
			return StreamRecord{}, err
		}
		trailer := StreamRecord{
			Type: "trailer", Version: snap.version, Count: len(res.Rows),
			Metrics: &res.Metrics, CacheHit: res.CacheHit, Algo: explain.Algorithm,
		}
		if rq.explain {
			trailer.Plan = explain
		}
		return trailer, nil
	})
}
