package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/serve"
)

// TestWireBytes: every read shape renders the same bytes both ways on
// both tiers — the body a node or a coordinator writes (rows by hand)
// is exactly what encoding/json writes for the response it decodes to,
// buffered, as NDJSON frames and as SSE events. The labels need JSON
// escaping (a quote, a backslash, HTML characters, U+2028, a control
// byte), so a row that skipped encoding/json's escaping would show.
func TestWireBytes(t *testing.T) {
	labels := []string{`a"q`, `b\s`, "<c>&", "d\u2028e", "\x01f"}
	spec := serve.TableSpec{
		Name:      "wire",
		TOColumns: []string{"x", "y"},
		Orders: []serve.OrderSpec{{Name: "cls", Values: labels,
			Edges: [][2]string{{labels[0], labels[1]}, {labels[1], labels[3]}, {labels[2], labels[3]}}}},
	}
	for i, r := range fixtureRows(240, 11) {
		spec.Rows = append(spec.Rows, serve.RowSpec{TO: r.TO, PO: []string{labels[i%len(labels)]}})
	}
	tc := newTestCluster(t, 2, spec)
	le := int64(600)
	shapes := map[string]struct {
		req    serve.QueryRequest
		params string
	}{
		"full":        {req: serve.QueryRequest{}},
		"cold":        {req: serve.QueryRequest{NoCache: true}},
		"constrained": {req: serve.QueryRequest{Where: []serve.WhereSpec{{Col: "x", Le: &le}, {Col: "cls", In: labels[:3]}}}},
		"subspace":    {req: serve.QueryRequest{Subspace: []string{"x", "cls"}}},
		"topk":        {req: serve.QueryRequest{TopK: 4}},
		"topk-ranked": {req: serve.QueryRequest{TopK: 4, Rank: "dpidp"}},
		"limit":       {req: serve.QueryRequest{Limit: 3}, params: "limit=2"},
		"explain":     {req: serve.QueryRequest{Explain: true, Where: []serve.WhereSpec{{Col: "y", Le: &le}}}},
	}
	for name, sh := range shapes {
		for _, tier := range []struct{ name, base string }{{"node", tc.single.URL}, {"coordinator", tc.co.URL}} {
			for _, delivery := range []string{"", "stream=1", "stream=1&sse=1"} {
				params := strings.Trim(sh.params+"&"+delivery, "&")
				body := postRaw(t, tier.base+"/tables/wire/query?"+params, sh.req)
				rows := 0
				switch delivery {
				case "":
					rows = sameBytes[serve.QueryResponse](t, body, func(r *serve.QueryResponse) int { return len(r.Skyline) })
				case "stream=1":
					sc := bufio.NewScanner(bytes.NewReader(body))
					sc.Buffer(nil, 1<<20)
					for sc.Scan() {
						rows += sameBytes[serve.StreamRecord](t, append(sc.Bytes(), '\n'), streamedRow)
					}
				default:
					for _, event := range strings.SplitAfter(string(body), "\n\n") {
						if event == "" {
							continue
						}
						data, ok := strings.CutPrefix(event, "data: ")
						if !ok || !strings.HasSuffix(data, "}\n\n") {
							t.Fatalf("%s %s %s: malformed SSE event %q", name, tier.name, delivery, event)
						}
						rows += sameBytes[serve.StreamRecord](t, []byte(data[:len(data)-1]), streamedRow)
					}
				}
				if rows == 0 {
					t.Errorf("%s %s %q: no rows delivered", name, tier.name, delivery)
				}
			}
		}
	}
}

// postRaw POSTs one query and returns the raw 200 body.
func postRaw(t *testing.T, url string, req serve.QueryRequest) []byte {
	t.Helper()
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: HTTP %d: %s", url, resp.StatusCode, body)
	}
	return body
}

// sameBytes decodes one JSON value (with encoding/json's trailing
// newline) as a T and requires encoding/json to write it back byte for
// byte; it returns rows(value).
func sameBytes[T any](t *testing.T, got []byte, rows func(*T) int) int {
	t.Helper()
	var v T
	if err := json.Unmarshal(got, &v); err != nil {
		t.Fatalf("decode %s: %v", got, err)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(&v); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("wire bytes differ from encoding/json's:\n got  %s\n want %s", got, want.Bytes())
	}
	return rows(&v)
}

func streamedRow(rec *serve.StreamRecord) int {
	if rec.Type == "row" {
		return 1
	}
	return 0
}
