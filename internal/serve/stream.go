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
// per line (NDJSON) or one SSE data event per record, each followed by
// a flush so rows reach the client the moment they are certified.
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
	if sw.f != nil {
		sw.f.Flush()
	}
	return sw
}

// send encodes one record through the pooled buffer and flushes it.
func (sw *streamWriter) send(rec *StreamRecord) error {
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
	if _, err := sw.w.Write(buf.Bytes()); err != nil {
		return err
	}
	if sw.f != nil {
		sw.f.Flush()
	}
	return nil
}

// StreamResponse drives a streamed query response: the header record
// first, then every record produce emits, heartbeats whenever the
// producer stays silent for a full heartbeat interval, and finally the
// trailer produce returns — or an "error" record if it fails. produce
// runs on its own goroutine against a context that is canceled when the
// client disconnects (or stops reading), so a torn-down stream releases
// the query's cursor instead of computing into a closed socket; its emit
// returns the cancellation as an error, and StreamResponse always waits
// for produce to return before it does. Exported for the cluster
// coordinator, whose streamed scatter/gather reuses the exact framing.
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
	for {
		select {
		case rec := <-rows:
			if err := sw.send(&rec); err != nil {
				cancel()
				<-done // drain the producer before returning the handler
				return
			}
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
// the cursor's key, on the progressive routes), and a trailer carrying
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
