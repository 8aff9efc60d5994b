package serve

import (
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

// write frames one record onto the response, without flushing: a row
// record RowRecord encoded as its bytes, any other record through
// encoding/json, both in a pooled buffer.
func (sw *streamWriter) write(rec *StreamRecord) error {
	bd := rec.encoded
	if bd == nil {
		var err error
		if bd, err = encodeRecord(*rec); err != nil {
			return err
		}
	}
	defer bodyPool.Put(bd)
	line := bd.b
	if sw.sse {
		// Each line (one JSON object and its \n) becomes a data event;
		// SSE events end with a blank line.
		bd.b = append(bd.b, "data: "...)
		bd.b = append(append(bd.b, line...), '\n')
		line = bd.b[len(line):]
	}
	_, err := sw.w.Write(line)
	return err
}

// encodeRecord encodes a record into a pooled buffer. It takes the
// record by value: only a record encoding/json encodes moves to the
// heap, never a row record on its way through write.
func encodeRecord(rec StreamRecord) (*body, error) {
	bd := getBody()
	if err := json.NewEncoder(bd).Encode(&rec); err != nil {
		bodyPool.Put(bd)
		return nil, err
	}
	return bd, nil
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
			to, po := snap.table.RowCodes(int(row.ID))
			rec, err := RowRecord(e.schema, int(row.ID), to, po, nil,
				FrameInfo{Emission: row.Index, Elapsed: row.Elapsed.Seconds(), Key: row.Key})
			if err != nil {
				return err
			}
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
