package main

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/serve"
)

// TestThinClientEndToEnd drives the -serve client path against an
// in-process tssserve: upload a CSV workload, run a static query, a
// parallel one, and a dynamic per-request-DAG query.
func TestThinClientEndToEnd(t *testing.T) {
	dir := t.TempDir()
	dataPath := filepath.Join(dir, "data.csv")
	dagPath := filepath.Join(dir, "dag_0.txt")
	queryDAG := filepath.Join(dir, "qdag.txt")
	if err := os.WriteFile(dataPath, []byte("to_0,po_0\n10,0\n20,1\n5,2\n7,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dagPath, []byte("3\n0 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(queryDAG, []byte("3\n2 0\n2 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(serve.New(4).Handler())
	defer ts.Close()

	base := clientConfig{
		baseURL: ts.URL, table: "t",
		dataPath: dataPath, dagList: dagPath,
		method: "stss", limit: 10,
	}
	if err := runClient(base); err != nil {
		t.Fatalf("static: %v", err)
	}
	// The table exists now; query again without re-uploading.
	par := base
	par.dataPath, par.dagList = "", ""
	par.parallel = 2
	if err := runClient(par); err != nil {
		t.Fatalf("parallel: %v", err)
	}
	dyn := par
	dyn.parallel = 0
	dyn.queryDAGs = queryDAG
	if err := runClient(dyn); err != nil {
		t.Fatalf("dynamic: %v", err)
	}
	// Fully dynamic with an ideal point.
	ideal := dyn
	ideal.ideal = "8"
	if err := runClient(ideal); err != nil {
		t.Fatalf("ideal: %v", err)
	}
	// Errors surface: unknown table.
	missing := par
	missing.table = "nope"
	if err := runClient(missing); err == nil {
		t.Fatal("missing table must fail")
	}
	// Unreachable server.
	down := par
	down.baseURL = "http://127.0.0.1:1"
	if err := runClient(down); err == nil {
		t.Fatal("unreachable server must fail")
	}
}

// TestThinClientComposesQueryDAGs: -querydags is one more field of the
// planned request — it rides with -parallel, -where, -topk/-rank,
// -explain and -stream instead of being refused beside them.
func TestThinClientComposesQueryDAGs(t *testing.T) {
	dir := t.TempDir()
	dataPath := writeFile(t, dir, "data.csv", "to_0,po_0\n10,0\n20,1\n5,2\n7,1\n")
	dagPath := writeFile(t, dir, "dag_0.txt", "3\n0 1\n")
	queryDAG := writeFile(t, dir, "qdag.txt", "3\n2 0\n2 1\n")
	ts := httptest.NewServer(serve.New(4).Handler())
	defer ts.Close()

	base := clientConfig{
		baseURL: ts.URL, table: "t", dataPath: dataPath, dagList: dagPath,
		method: "stss", limit: 10, queryDAGs: queryDAG, parallel: 2,
	}
	if err := runClient(base); err != nil {
		t.Fatalf("-querydags -parallel: %v", err)
	}
	base.dataPath, base.dagList, base.parallel = "", "", 0
	for name, mut := range map[string]func(*clientConfig){
		"where+explain": func(c *clientConfig) { c.plan = planFlags{where: "to_0<=9", explain: true} },
		"topk+rank":     func(c *clientConfig) { c.plan = planFlags{topk: 1, rank: "dpidp"} },
		"subspace":      func(c *clientConfig) { c.plan = planFlags{subspace: "to_0,po_0"} },
		"stream":        func(c *clientConfig) { c.stream = true; c.plan = planFlags{where: "to_0<=9"} },
		"first":         func(c *clientConfig) { c.stream, c.first = true, 1 },
	} {
		cfg := base
		mut(&cfg)
		if err := runClient(cfg); err != nil {
			t.Errorf("-querydags with %s: %v", name, err)
		}
	}
	// A cyclic query DAG is the server's 400, surfaced.
	bad := base
	bad.queryDAGs = writeFile(t, dir, "cyc.txt", "3\n0 1\n1 0\n")
	if err := runClient(bad); err == nil {
		t.Fatal("cyclic -querydags accepted")
	}
}
