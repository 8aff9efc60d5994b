package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/plan"
	"repro/internal/serve"
)

// readShape is one request shape of the read path: a POST /query body
// plus URL parameters.
type readShape struct {
	name   string
	req    serve.QueryRequest
	params string // "k=v&…" beside ?stream=1
	// seq: the row order is part of the answer (ranked top-k), so
	// buffered ≡ streamed is checked as a sequence within a tier.
	seq bool
	// prefix: the answer is *some* K members of the full skyline (top-k
	// cuts and rank ties fall differently per placement), so tiers are
	// compared by size and membership, not by multiset.
	prefix bool
}

// answer is one route's reply, whatever its delivery.
type answer struct {
	status  int
	errText string
	rows    []serve.SkylineRow
	count   int
	version int64
	algo    string
}

// ask sends one shape to one tier, buffered or streamed.
func ask(t *testing.T, base string, sh readShape, stream bool) answer {
	t.Helper()
	params := []string{}
	if sh.params != "" {
		params = append(params, sh.params)
	}
	if stream {
		params = append(params, "stream=1")
	}
	buf, err := json.Marshal(sh.req)
	if err != nil {
		t.Fatal(err)
	}
	url := base + "/tables/diff/query?" + strings.Join(params, "&")
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	a := answer{status: resp.StatusCode}
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		a.errText = e.Error
		return a
	}
	if !stream {
		var out serve.QueryResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		a.rows, a.count, a.version, a.algo = out.Skyline, out.Count, out.Version, out.Algo
		return a
	}
	var recs []serve.StreamRecord
	for dec := json.NewDecoder(resp.Body); ; {
		var rec serve.StreamRecord
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("%s: decode frame %d: %v", sh.name, len(recs), err)
		}
		recs = append(recs, rec)
	}
	rows, trailer := streamedRows(t, recs)
	a.rows, a.count, a.version, a.algo = rows, trailer.Count, trailer.Version, trailer.Algo
	return a
}

func valueSeq(rows []serve.SkylineRow) []string {
	keys := make([]string, len(rows))
	for i := range rows {
		keys[i] = rowKey(&rows[i])
	}
	return keys
}

// TestReadPathEquivalence pins what the single read path per tier rests
// on: every request shape answers the same through all four routes —
// {single node, 2-shard coordinator} × {buffered, ?stream=1} — and
// POST /query is the only read route on either tier.
func TestReadPathEquivalence(t *testing.T) {
	tc := newTestCluster(t, 2, fixtureSpec("diff", fixtureRows(300, 7)))
	le := int64(400)
	orders := []serve.QueryOrder{
		{Edges: [][2]string{{"d", "a"}, {"d", "b"}}},
		{Edges: [][2]string{{"t3", "t2"}, {"t2", "t1"}}},
	}
	shapes := []readShape{
		{name: "full", req: serve.QueryRequest{Explain: true}},
		{name: "subspace", req: serve.QueryRequest{Subspace: []string{"x", "cls"}}},
		{name: "constrained", req: serve.QueryRequest{Where: []serve.WhereSpec{{Col: "x", Le: &le}, {Col: "cls", In: []string{"a", "b"}}}}},
		{name: "topk", req: serve.QueryRequest{TopK: 5}, prefix: true},
		{name: "fweights", req: serve.QueryRequest{FWeights: []float64{0.3, 0.2}}},
		{name: "orders", req: serve.QueryRequest{Orders: orders}},
		{name: "orders+ideal", req: serve.QueryRequest{Orders: orders, Ideal: []int64{500, 500}}},
		{name: "orders+where", req: serve.QueryRequest{Orders: orders, Where: []serve.WhereSpec{{Col: "x", Le: &le}, {Col: "cls", In: []string{"a", "d"}}}}},
		{name: "orders+subspace", req: serve.QueryRequest{Orders: orders, Subspace: []string{"x", "cls"}, Explain: true}},
		{name: "orders+topk+dpidp", req: serve.QueryRequest{Orders: orders, TopK: 5, Rank: "dpidp"}, seq: true, prefix: true},
		{name: "orders+where+ideal", req: serve.QueryRequest{Orders: orders, Where: []serve.WhereSpec{{Col: "x", Le: &le}}, Ideal: []int64{500, 500}, NoCache: true}},
		// The algorithm forced, the memo bypassed: tssquery's bare
		// invocation.
		{name: "skyline", req: serve.QueryRequest{Algo: "stss", NoCache: true}},
		{name: "skyline-algo", req: serve.QueryRequest{Algo: "sfs", NoCache: true}},
		{name: "skyline-parallel", req: serve.QueryRequest{Algo: "stss", Parallel: 2, NoCache: true}},
	}
	for _, rank := range plan.RankerNames() {
		sh := readShape{name: "rank-" + rank, req: serve.QueryRequest{TopK: 5, Rank: rank}, seq: true, prefix: true}
		switch rank {
		case "ideal":
			sh.req.Ideal = []int64{500, 500}
		case "layer": // topK is a depth bound: the answer is value-determined
			sh.req.TopK, sh.prefix = 2, false
		}
		shapes = append(shapes, sh)
	}

	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			// The skyline a top-k cut must draw from: the bare query under
			// the shape's orders ({} itself when it brings none).
			member := make(map[string]int)
			for _, k := range valueSeq(ask(t, tc.single.URL, readShape{req: serve.QueryRequest{Orders: sh.req.Orders}}, false).rows) {
				member[k]++
			}
			var tiers [2][2]answer // [single, coordinator][buffered, streamed]
			for ti, base := range []string{tc.single.URL, tc.co.URL} {
				for di, stream := range []bool{false, true} {
					a := ask(t, base, sh, stream)
					if a.status != http.StatusOK {
						t.Fatalf("tier %d stream=%v: status %d: %s", ti, stream, a.status, a.errText)
					}
					tiers[ti][di] = a
				}
				buf, str := tiers[ti][0], tiers[ti][1]
				if buf.count != str.count || buf.version != str.version || len(buf.rows) != len(str.rows) {
					t.Errorf("tier %d: buffered %d rows count=%d version=%d, streamed %d rows count=%d version=%d",
						ti, len(buf.rows), buf.count, buf.version, len(str.rows), str.count, str.version)
				}
				switch {
				case sh.seq:
					if fmt.Sprint(valueSeq(buf.rows)) != fmt.Sprint(valueSeq(str.rows)) {
						t.Errorf("tier %d: streamed order %v, buffered %v", ti, valueSeq(str.rows), valueSeq(buf.rows))
					}
				case !sh.prefix:
					if !equalKeys(sortedKeys(buf.rows), sortedKeys(str.rows)) {
						t.Errorf("tier %d: streamed rows diverge from buffered", ti)
					}
				}
				// algo: every answer names what ran.
				for di, a := range tiers[ti] {
					if a.algo == "" || (sh.req.Algo != "" && a.algo != sh.req.Algo) {
						t.Errorf("tier %d delivery %d: algo %q, forced %q", ti, di, a.algo, sh.req.Algo)
					}
				}
			}
			single, cluster := tiers[0][0], tiers[1][0]
			if single.count != cluster.count {
				t.Errorf("count: single %d, cluster %d", single.count, cluster.count)
			}
			if !sh.prefix {
				if !equalKeys(sortedKeys(single.rows), sortedKeys(cluster.rows)) {
					t.Errorf("single and cluster rows diverge:\n single  %v\n cluster %v", sortedKeys(single.rows), sortedKeys(cluster.rows))
				}
				return
			}
			for ti := range tiers {
				for di := range tiers[ti] {
					seen := make(map[string]int)
					for _, k := range valueSeq(tiers[ti][di].rows) {
						if seen[k]++; seen[k] > member[k] {
							t.Errorf("tier %d delivery %d: row %s is not a skyline member", ti, di, k)
						}
					}
				}
			}
		})
	}

	// The GET /skyline shorthand is gone from both tiers.
	for _, base := range []string{tc.single.URL, tc.co.URL} {
		resp, err := http.Get(base + "/tables/diff/skyline?algo=stss")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: GET /tables/diff/skyline answered %d, want 404", base, resp.StatusCode)
		}
	}

	// Malformed orders — wrong arity, an unknown label, a preference
	// cycle — and a forced baseline (the paper's, or bnl and less, which
	// no plan runs) get the identical refusal
	// everywhere, before any stream opens, whatever they are combined
	// with.
	for name, bad := range map[string]serve.QueryRequest{
		"arity":    {Orders: orders[:1], TopK: 2},
		"label":    {Orders: []serve.QueryOrder{{Edges: [][2]string{{"d", "zz"}}}, {}}, TopK: 2},
		"cycle":    {Orders: []serve.QueryOrder{{Edges: [][2]string{{"d", "a"}, {"a", "d"}}}, {}}, TopK: 2},
		"baseline": {Algo: "sdc+", NoCache: true},
		"bnl":      {Algo: "bnl", NoCache: true},
		"less":     {Algo: "less", NoCache: true},
	} {
		sh := readShape{req: bad}
		want := ask(t, tc.single.URL, sh, false)
		if want.status != http.StatusBadRequest || want.errText == "" {
			t.Fatalf("%s: status %d, error %q", name, want.status, want.errText)
		}
		if bad.Algo != "" && (!strings.Contains(want.errText, "unknown algorithm") || !strings.Contains(want.errText, "(have: sfs, stss)")) {
			t.Errorf("%s: error %q does not refuse the algorithm naming the two serving ones", name, want.errText)
		}
		for _, base := range []string{tc.single.URL, tc.co.URL} {
			for _, stream := range []bool{false, true} {
				if got := ask(t, base, sh, stream); got.status != want.status || got.errText != want.errText {
					t.Errorf("%s %s stream=%v: answer %d %q, want %d %q", name, base, stream, got.status, got.errText, want.status, want.errText)
				}
			}
		}
	}
}

// TestCoordinatorQueryBodyBound: the coordinator refuses an oversized
// query body with 413, like a single node.
func TestCoordinatorQueryBodyBound(t *testing.T) {
	tc := newTestCluster(t, 2, fixtureSpec("diff", fixtureRows(10, 1)))
	huge := readShape{req: serve.QueryRequest{Subspace: []string{strings.Repeat("x", maxQueryBody)}}}
	if got := ask(t, tc.co.URL, huge, false); got.status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized query body: status %d (%s), want 413", got.status, got.errText)
	}
}

// TestCoordinatorDomCountBodyBound: the coordinator refuses a
// /domcount body past serve.MaxDomCountBody with 413, like a single
// node. The body is JSON whitespace generated as it is sent.
func TestCoordinatorDomCountBodyBound(t *testing.T) {
	tc := newTestCluster(t, 2, fixtureSpec("diff", fixtureRows(10, 1)))
	body := io.MultiReader(strings.NewReader(`{"rows":[`), io.LimitReader(spaces{}, serve.MaxDomCountBody))
	resp, err := http.Post(tc.co.URL+"/tables/diff/domcount", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized domcount body: status %d, want 413", resp.StatusCode)
	}
}

// TestCoordinatorCreateBodyBound: the coordinator refuses a
// table-create body past serve.MaxCreateBody with 413, like a single
// node, before it reaches any shard. The body is JSON whitespace
// generated as it is sent.
func TestCoordinatorCreateBodyBound(t *testing.T) {
	tc := newTestCluster(t, 2, fixtureSpec("diff", fixtureRows(10, 1)))
	body := io.MultiReader(strings.NewReader(`{"name":"huge","toColumns":["x"],"rows":[`), io.LimitReader(spaces{}, serve.MaxCreateBody))
	resp, err := http.Post(tc.co.URL+"/tables", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized create body: status %d, want 413", resp.StatusCode)
	}
}

// TestCoordinatorBatchBodyBound: the coordinator refuses a rows:batch
// body past serve.MaxDomCountBody with 413, like a single node, before
// it reaches any shard. The body is JSON whitespace generated as it is
// sent.
func TestCoordinatorBatchBodyBound(t *testing.T) {
	tc := newTestCluster(t, 2, fixtureSpec("diff", fixtureRows(10, 1)))
	body := io.MultiReader(strings.NewReader(`{"add":[`), io.LimitReader(spaces{}, serve.MaxDomCountBody))
	resp, err := http.Post(tc.co.URL+"/tables/diff/rows:batch", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch body: status %d, want 413", resp.StatusCode)
	}
}

// spaces reads as an endless run of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestNegativeLimitRejected: a negative limit is a client error on both
// tiers, buffered and streamed, from the body or ?limit — never a
// stream whose trailer counts rows it did not send.
func TestNegativeLimitRejected(t *testing.T) {
	tc := newTestCluster(t, 2, fixtureSpec("diff", fixtureRows(60, 3)))
	for _, tier := range []struct{ name, base string }{{"node", tc.single.URL}, {"coordinator", tc.co.URL}} {
		for _, stream := range []bool{false, true} {
			for _, sh := range []readShape{
				{name: "body", req: serve.QueryRequest{Limit: -1}},
				{name: "param", params: "limit=-1"},
			} {
				if got := ask(t, tier.base, sh, stream); got.status != http.StatusBadRequest || got.errText == "" {
					t.Errorf("%s stream=%v %s: status %d (%q), want 400", tier.name, stream, sh.name, got.status, got.errText)
				}
			}
		}
	}
}
