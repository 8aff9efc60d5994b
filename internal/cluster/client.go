package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"repro/internal/serve"
)

// ShardDirectHeader marks a request as coordinator→shard traffic. A
// dual-role node (coordinator and shard in one process) routes requests
// carrying it to its local catalog instead of back into the cluster
// layer — without it, a coordinator listing itself as a shard would
// scatter to itself forever. The canonical definition lives in serve so
// the replication follower's client (which never imports the cluster
// layer) shares it.
const ShardDirectHeader = serve.ShardDirectHeader

// shardClient talks to one shard node's HTTP API.
type shardClient struct {
	base  string // base URL, no trailing slash
	index int    // shard index within the cluster
	count int
	http  *http.Client
	// streamHTTP is http minus the overall request timeout: a streamed
	// leg lives as long as the merge consuming it, so its lifetime is
	// bounded by the caller's context, not a flat deadline.
	streamHTTP *http.Client
}

// bodyReader reads a shard's answer itself, instead of encoding/json:
// a query leg's rows are read by hand (serve.RowDecoder).
type bodyReader func(io.Reader) error

// tagged is an out that keeps the answer's ETag beside it: the
// validator of the shard snapshot that answered ("" when none was sent).
type tagged struct {
	out  any
	etag string
}

// do issues one JSON round trip and decodes the answer into out: a
// bodyReader reads it, a *tagged keeps the ETag and decodes into its
// own out, anything else is encoding/json's.
func (c *shardClient) do(ctx context.Context, method, path string, body, out any) error {
	resp, err := c.send(ctx, c.http, method, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if t, ok := out.(*tagged); ok {
		t.etag = resp.Header.Get("Etag")
		out = t.out
	}
	switch out := out.(type) {
	case nil:
		return nil
	case bodyReader:
		return out(resp.Body)
	default:
		return json.NewDecoder(resp.Body).Decode(out)
	}
}

// stream opens one streamed leg (a POST to a ?stream=1 path): like do,
// but hands the caller the raw NDJSON body to decode frame by frame.
func (c *shardClient) stream(ctx context.Context, path string, body any) (io.ReadCloser, error) {
	resp, err := c.send(ctx, c.streamHTTP, http.MethodPost, path, body)
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}

// send issues one request: a []byte body is sent as it is, any other
// through json.Marshal. Every request carries the shard-direct marker
// and the expected-identity assertion, and rides the caller's context
// so a coordinator-side timeout cancels the whole scatter. A non-2xx
// status becomes a shardError (the body closed).
func (c *shardClient) send(ctx context.Context, hc *http.Client, method, path string, body any) (*http.Response, error) {
	var rd io.Reader
	switch body := body.(type) {
	case nil:
	case []byte:
		rd = bytes.NewReader(body)
	default:
		buf, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set(ShardDirectHeader, "1")
	req.Header.Set(serve.ExpectShardHeader, fmt.Sprintf("%d/%d", c.index, c.count))
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("shard %d (%s): %w", c.index, c.base, err)
	}
	if resp.StatusCode/100 != 2 {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		var e struct {
			Error string `json:"error"`
		}
		msg := strings.TrimSpace(string(raw))
		if json.Unmarshal(raw, &e) == nil && e.Error != "" {
			msg = e.Error
		}
		return nil, &shardError{shard: c.index, status: resp.StatusCode, msg: msg}
	}
	return resp, nil
}

// shardError preserves the shard's HTTP status so the coordinator can
// relay client errors (4xx) as such instead of flattening everything
// into a 502.
type shardError struct {
	shard  int
	status int
	msg    string
}

func (e *shardError) Error() string {
	return fmt.Sprintf("shard %d: %s (HTTP %d)", e.shard, e.msg, e.status)
}

func (c *shardClient) tablePath(name string, suffix string) string {
	return "/tables/" + url.PathEscape(name) + suffix
}
