package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/serve"
)

func TestTableFlags(t *testing.T) {
	var f tableFlags
	if err := f.Set("a=dir1"); err != nil {
		t.Fatal(err)
	}
	if err := f.Set("b=dir2"); err != nil {
		t.Fatal(err)
	}
	if f.String() != "a=dir1,b=dir2" {
		t.Fatalf("String() = %q", f.String())
	}
}

// TestPprofMux pins the -pprof side listener's routes: the index and
// the named profiles answer, and the serving API never leaks onto the
// profiling listener.
func TestPprofMux(t *testing.T) {
	ts := httptest.NewServer(pprofMux())
	defer ts.Close()

	for _, path := range []string{
		"/debug/pprof/",
		"/debug/pprof/goroutine?debug=1",
		"/debug/pprof/cmdline",
		"/debug/pprof/symbol",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		if path == "/debug/pprof/" && !strings.Contains(string(body), "goroutine") {
			t.Errorf("pprof index does not list the goroutine profile")
		}
	}

	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /statsz on the pprof listener: status %d, want 404", resp.StatusCode)
	}
}

// TestPreloadAndServe exercises the binary's startup path (CSV preload
// into a catalog, handler wiring) without binding a real port.
func TestPreloadAndServe(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "data.csv"),
		[]byte("to_0,po_0\n3,0\n1,1\n2,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "dag_0.txt"),
		[]byte("3\n0 1\n1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := serve.New(4)
	info, err := s.LoadCSVDir("gen", dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Rows != 3 {
		t.Fatalf("rows = %d", info.Rows)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, path := range []string{"/healthz", "/statsz", "/tables", "/tables/gen"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: HTTP %d", path, resp.StatusCode)
		}
	}
	var out serve.QueryResponse
	postJSON(t, ts.URL+"/tables/gen/query", forcedSkyline, &out)
	if out.Count != 2 {
		t.Errorf("gen skyline: %d rows, want 2", out.Count)
	}
}
