package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/serve"
)

// opTimeout fails an op that has not completed: a hung server must
// show as failed ops, not as a hung benchmark.
const opTimeout = 30 * time.Second

// op is one request of a workload cycle. Its body is marshalled when
// the cycle is built, so the timed path only sends bytes.
type op struct {
	class  string // the one op class whose metrics this op feeds
	method string
	path   string // includes the query string; "?stream=1" marks a stream
	body   []byte
	stream bool
	direct bool // set X-Tss-Shard-Direct (traced shard-leg probes)
}

func query(class string, req serve.QueryRequest) op {
	return op{class: class, method: http.MethodPost, path: "/tables/t/query", body: mustJSON(req)}
}

func streamQuery(class string, req serve.QueryRequest) op {
	o := query(class, req)
	o.path += "?stream=1"
	o.stream = true
	return o
}

func batch(class string, req serve.BatchRequest) op {
	return op{class: class, method: http.MethodPost, path: "/tables/t/rows:batch", body: mustJSON(req)}
}

// timing is what one completed op measured. first is the time to the
// first result: the first `row` frame of a stream, the first body byte
// of a buffered response.
type timing struct {
	first, total time.Duration
	rows         int // `row` frames seen (streams)
}

// client is one closed-loop user: one keep-alive connection, no
// compression, the next request sent only after the previous reply.
type client struct {
	base string
	http *http.Client
	buf  []byte
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}
	return &client{base: base, http: &http.Client{Transport: tr, Timeout: opTimeout}, buf: make([]byte, 64<<10)}
}

func (c *client) close() { c.http.CloseIdleConnections() }

func (c *client) send(o *op) (*http.Response, error) {
	var body io.Reader
	if o.body != nil {
		body = bytes.NewReader(o.body)
	}
	req, err := http.NewRequest(o.method, c.base+o.path, body)
	if err != nil {
		return nil, err
	}
	if o.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if o.direct {
		req.Header.Set(serve.ShardDirectHeader, "1")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, fmt.Errorf("%s %s: HTTP %d: %s", o.method, o.path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return resp, nil
}

// do runs one op on the timed path: the body is read and discarded —
// or, with keep, copied for the caller to decode once the timer has
// stopped — and a stream is scanned frame by frame without decoding. A
// non-2xx status, an in-band stream `error`, a missing trailer or the
// timeout is a failed op with no latency.
func (c *client) do(o *op, keep *bytes.Buffer) (timing, error) {
	start := time.Now()
	resp, err := c.send(o)
	if err != nil {
		return timing{}, err
	}
	defer resp.Body.Close()
	var t timing
	switch {
	case o.stream:
		t, err = scanStream(resp.Body, start)
	case keep != nil:
		keep.Reset()
		_, err = keep.ReadFrom(resp.Body)
	default:
		t, err = c.discard(resp.Body, start)
	}
	if err != nil {
		return timing{}, fmt.Errorf("%s %s: %w", o.method, o.path, err)
	}
	t.total = time.Since(start)
	if t.first == 0 {
		t.first = t.total
	}
	return t, nil
}

func (c *client) discard(r io.Reader, start time.Time) (timing, error) {
	var t timing
	for {
		n, err := r.Read(c.buf)
		if n > 0 && t.first == 0 {
			t.first = time.Since(start)
		}
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return t, err
		}
	}
}

// Stream frames are NDJSON records whose first field is "type", so the
// frame kind is decided from the line prefix alone.
var (
	rowPrefix     = []byte(`{"type":"row"`)
	trailerPrefix = []byte(`{"type":"trailer"`)
	errorPrefix   = []byte(`{"type":"error"`)
)

func scanStream(r io.Reader, start time.Time) (timing, error) {
	var t timing
	br := bufio.NewReaderSize(r, 64<<10)
	for {
		line, err := br.ReadSlice('\n')
		if err != nil && !errors.Is(err, bufio.ErrBufferFull) {
			if err == io.EOF {
				return t, errors.New("stream ended without a trailer")
			}
			return t, err
		}
		switch {
		case bytes.HasPrefix(line, rowPrefix):
			if t.rows == 0 {
				t.first = time.Since(start)
			}
			t.rows++
		case bytes.HasPrefix(line, trailerPrefix):
			// The terminating chunk follows the trailer. Reading on to
			// EOF, inside the timer, keeps the connection alive: the
			// transport drops one whose body is closed early, and the
			// next op would pay for a new one.
			_, err := io.Copy(io.Discard, br)
			return t, err
		case bytes.HasPrefix(line, errorPrefix):
			return t, fmt.Errorf("in-band stream error: %s", bytes.TrimSpace(line))
		}
		// header and heartbeat frames carry nothing to time
	}
}

// answer is a decoded response, for the untimed paths: the writer's
// membership bookkeeping and the oracle checks.
type answer struct {
	rows    []serve.SkylineRow // in response (emission) order
	count   int
	plan    json.RawMessage
	cluster *serve.ClusterMeta
	bytes   int // response body size
}

// fetch runs one op off the timer and decodes its answer.
func (c *client) fetch(o *op) (*answer, error) {
	resp, err := c.send(o)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if o.stream {
		return decodeStream(raw)
	}
	return decodeBuffered(raw)
}

func decodeBuffered(raw []byte) (*answer, error) {
	var qr struct {
		Count   int                `json:"count"`
		Skyline []serve.SkylineRow `json:"skyline"`
		Plan    json.RawMessage    `json:"plan"`
		Cluster *serve.ClusterMeta `json:"cluster"`
	}
	if err := json.Unmarshal(raw, &qr); err != nil {
		return nil, err
	}
	return &answer{rows: qr.Skyline, count: qr.Count, plan: qr.Plan, cluster: qr.Cluster, bytes: len(raw)}, nil
}

func decodeStream(raw []byte) (*answer, error) {
	a := &answer{bytes: len(raw)}
	dec := json.NewDecoder(bytes.NewReader(raw))
	for {
		var rec struct {
			serve.StreamRecord
			Plan json.RawMessage `json:"plan"`
		}
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("stream ended without a trailer: %w", err)
		}
		switch rec.Type {
		case "row":
			a.rows = append(a.rows, *rec.Row)
		case "error":
			return nil, errors.New(rec.Error)
		case "trailer":
			a.count, a.plan, a.cluster = rec.Count, rec.Plan, rec.Cluster
			return a, nil
		}
	}
}
