package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/oracle"
	"repro/internal/plan"
	"repro/internal/poset"
	"repro/internal/serve"
)

func TestParseWhere(t *testing.T) {
	clauses, err := parseWhere("to_0<=500, to_1>=2 ,po_0 in 1|3")
	if err != nil {
		t.Fatal(err)
	}
	want := []whereClause{
		{col: "to_0", op: "<=", val: "500"},
		{col: "to_1", op: ">=", val: "2"},
		{col: "po_0", op: "in", val: "1|3"},
	}
	if len(clauses) != len(want) {
		t.Fatalf("got %+v", clauses)
	}
	for i := range want {
		if clauses[i] != want[i] {
			t.Fatalf("clause %d: got %+v want %+v", i, clauses[i], want[i])
		}
	}
	if _, err := parseWhere("to_0 = 5"); err == nil {
		t.Fatal("bad operator accepted")
	}
}

// TestParseCol: a local run resolves column names through the schema a
// server gives the uploaded workload — to_<i>, po_<i> and po<i> — and
// rejects what a server rejects, to1 included.
func TestParseCol(t *testing.T) {
	dir := t.TempDir()
	domains, err := data.ReadDomains([]string{writeFile(t, dir, "dag.txt", "2\n0 1\n")})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := data.ReadCSVDataset(writeFile(t, dir, "data.csv", "to_0,to_1,po_0\n1,2,0\n"), domains)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := localSchema(ds)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		tok  string
		dim  int
		isTO bool
	}{
		{"to_0", 0, true}, {"to_1", 1, true}, {"po_0", 0, false}, {"po0", 0, false},
	} {
		dim, isTO, err := schema.LookupCol(tc.tok)
		if err != nil || dim != tc.dim || isTO != tc.isTO {
			t.Fatalf("LookupCol(%q) = (%d, %v, %v)", tc.tok, dim, isTO, err)
		}
	}
	for _, bad := range []string{"to1", "x0", "to_9", "po_5", "po5", "to_x"} {
		if _, _, err := schema.LookupCol(bad); err == nil {
			t.Fatalf("LookupCol(%q) accepted", bad)
		}
	}
}

// TestSameRequestBothModes: for the same flags, the body -serve POSTs
// is the request a local run translates, and both answer the same
// skyline.
func TestSameRequestBothModes(t *testing.T) {
	dir := t.TempDir()
	dataPath := writeFile(t, dir, "data.csv", "to_0,po_0\n10,0\n20,1\n5,2\n7,1\n")
	dagPath := writeFile(t, dir, "dag_0.txt", "3\n0 1\n")
	queryDAG := writeFile(t, dir, "qdag.txt", "3\n2 0\n2 1\n")
	domains, err := loadDomains(dagPath)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := data.ReadCSVDataset(dataPath, domains)
	if err != nil {
		t.Fatal(err)
	}

	var (
		mu   sync.Mutex
		sent []serve.QueryRequest
	)
	h := serve.New(4).Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/query") {
			var req serve.QueryRequest
			buf, _ := io.ReadAll(r.Body)
			if err := json.Unmarshal(buf, &req); err != nil {
				t.Errorf("decode POSTed query: %v", err)
			}
			mu.Lock()
			sent = append(sent, req)
			mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(buf))
		}
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()

	base := clientConfig{baseURL: ts.URL, table: "t", dataPath: dataPath, dagList: dagPath, method: "stss", limit: 10}
	if err := runClient(base); err != nil {
		t.Fatal(err)
	}
	base.dataPath, base.dagList = "", ""
	for name, mut := range map[string]func(*clientConfig){
		"bare":     func(c *clientConfig) { c.method, c.parallel = "sfs", 2 },
		"stream":   func(c *clientConfig) { c.stream, c.first = true, 2 },
		"shaped":   func(c *clientConfig) { c.plan = planFlags{where: "to_0<=9,po_0 in 1|2", explain: true} },
		"subspace": func(c *clientConfig) { c.plan = planFlags{subspace: "to_0,po0", topk: 2, rank: "domcount"} },
		"dynamic":  func(c *clientConfig) { c.queryDAGs, c.ideal = queryDAG, "8" },
	} {
		cfg := base
		mut(&cfg)
		mu.Lock()
		sent = sent[:0]
		mu.Unlock()
		if err := runClient(cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mu.Lock()
		posted := append([]serve.QueryRequest(nil), sent...)
		mu.Unlock()
		local, err := cfg.request()
		if err != nil {
			t.Fatal(err)
		}
		if len(posted) != 1 || !reflect.DeepEqual(posted[0], local) {
			t.Fatalf("%s: POSTed %+v, local run translates %+v", name, posted, local)
		}
		res, _, err := runLocal(ds, local, nil)
		if err != nil {
			t.Fatalf("%s: local run: %v", name, err)
		}
		var out serve.QueryResponse
		if err := (&client{base: ts.URL, http: http.DefaultClient}).postJSON("/tables/t/query", local, &out); err != nil {
			t.Fatal(err)
		}
		if len(res.SkylineIDs) != out.Count {
			t.Errorf("%s: local skyline %d rows, server %d", name, len(res.SkylineIDs), out.Count)
		}
	}
}

// TestRunPlannedLocal drives the local planner path over the flights
// workload: constrained and subspace answers match the hand-derived
// expectations of the serve-layer tests.
func TestRunPlannedLocal(t *testing.T) {
	dir := t.TempDir()
	dagPath := writeFile(t, dir, "dag.txt", "4\n0 1\n0 2\n1 3\n2 3\n")
	dag, err := data.ReadDAGFile(dagPath)
	if err != nil {
		t.Fatal(err)
	}
	dom, err := poset.NewDomain(dag)
	if err != nil {
		t.Fatal(err)
	}
	csv := "to_0,to_1,po_0\n" +
		"1800,0,0\n2000,0,0\n1800,0,1\n1200,1,1\n1400,1,0\n" +
		"1000,1,1\n1000,1,3\n1800,1,2\n500,2,3\n1200,2,2\n"
	ds, err := data.ReadCSVDataset(writeFile(t, dir, "data.csv", csv), []*poset.Domain{dom})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		pf   planFlags
		want []int32
	}{
		{"constrained", planFlags{where: "to_0<=1200"}, []int32{5, 8, 9}},
		{"po-in", planFlags{where: "po_0 in 0|1"}, []int32{0, 4, 5}},
		{"subspace", planFlags{subspace: "to_0"}, []int32{8}},
		{"explain", planFlags{where: "to_0<=1200", explain: true}, []int32{5, 8, 9}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := runPlanned(ds, tc.pf, "")
			if err != nil {
				t.Fatal(err)
			}
			got := append([]int32(nil), res.SkylineIDs...)
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			if len(got) != len(tc.want) {
				t.Fatalf("rows %v, want %v", got, tc.want)
			}
			for i := range tc.want {
				if got[i] != tc.want[i] {
					t.Fatalf("rows %v, want %v", got, tc.want)
				}
			}
		})
	}

	// Ranked top-k matches the plan oracle.
	pf := planFlags{topk: 2, rank: "domcount"}
	res, err := runPlanned(ds, pf, "")
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.Rank(string(plan.RankDomCount), ds.Domains, ds.Pts, core.NaiveSkylineUnder(ds.Domains, ds.Pts), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SkylineIDs) != len(want) || res.SkylineIDs[0] != want[0] || res.SkylineIDs[1] != want[1] {
		t.Fatalf("topk: got %v want %v", res.SkylineIDs, want)
	}

	// -ideal feeds -rank ideal or, unranked, is the |v-ideal| transform
	// (row 3 sits on the ideal point and must survive); any other rank
	// refuses it.
	if _, err := runPlanned(ds, planFlags{topk: 1, rank: "domcount"}, "5,5"); err == nil {
		t.Fatal("-ideal with a rank that does not consume it accepted")
	}
	res, err = runPlanned(ds, planFlags{}, "1200,1")
	if err != nil {
		t.Fatal(err)
	}
	want = core.NaiveSkylineUnder(ds.Domains, oracle.IdealPoints(ds.Pts, []int64{1200, 1}))
	if !slices.Equal(slices.Sorted(slices.Values(res.SkylineIDs)), slices.Sorted(slices.Values(want))) || !contains(res.SkylineIDs, 3) {
		t.Fatalf("ideal transform: got %v want %v", res.SkylineIDs, want)
	}
}

// runPlanned is a local run shaped by the planner flags (and -ideal).
func runPlanned(ds *core.Dataset, pf planFlags, ideal string) (*core.Result, error) {
	cfg := clientConfig{plan: pf, method: "stss", ideal: ideal}
	req, err := cfg.request()
	if err != nil {
		return nil, err
	}
	res, ex, err := runLocal(ds, req, nil)
	if err == nil && pf.explain {
		printExplain(ex)
	}
	return res, err
}

func contains(ids []int32, id int32) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// TestThinClientPlanQuery drives the planner flags end-to-end through
// the HTTP client against a live server.
func TestThinClientPlanQuery(t *testing.T) {
	dir := t.TempDir()
	dataPath := filepath.Join(dir, "data.csv")
	dagPath := filepath.Join(dir, "dag_0.txt")
	if err := os.WriteFile(dataPath, []byte("to_0,po_0\n10,0\n20,1\n5,2\n7,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dagPath, []byte("3\n0 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.New(4).Handler())
	defer ts.Close()

	base := clientConfig{
		baseURL: ts.URL, table: "t",
		dataPath: dataPath, dagList: dagPath, limit: 10,
	}
	base.plan = planFlags{where: "to_0<=9", explain: true}
	if err := runClient(base); err != nil {
		t.Fatalf("constrained: %v", err)
	}
	again := base
	again.dataPath, again.dagList = "", ""
	again.plan = planFlags{subspace: "to_0,po_0", topk: 2, rank: "domcount"}
	if err := runClient(again); err != nil {
		t.Fatalf("subspace+topk: %v", err)
	}
	// Server-side validation surfaces as a client error.
	bad := again
	bad.plan = planFlags{where: "bogus<=1"}
	if err := runClient(bad); err == nil {
		t.Fatal("unknown column accepted")
	}
}
