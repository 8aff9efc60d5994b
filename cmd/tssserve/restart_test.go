package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"syscall"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestKillAndRestart is the end-to-end durability test: a real
// tssserve process is populated over HTTP, terminated with SIGTERM,
// and restarted on the same -data-dir; every table must come back at
// its last published version with identical skyline results.
func TestKillAndRestart(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("SIGTERM semantics differ on windows")
	}
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := filepath.Join(t.TempDir(), "tssserve")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	dataDir := filepath.Join(t.TempDir(), "data")
	addr := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	base := "http://" + addr

	// Epoch 1: start, create a table, run a few batches.
	proc := startServer(t, bin, addr, dataDir)
	spec := serve.TableSpec{
		Name:      "flights",
		TOColumns: []string{"price", "stops"},
		Orders: []serve.OrderSpec{{
			Name:   "airline",
			Values: []string{"a", "b", "c", "d"},
			Edges:  [][2]string{{"a", "b"}, {"a", "c"}, {"b", "d"}, {"c", "d"}},
		}},
	}
	for i := 0; i < 10; i++ {
		spec.Rows = append(spec.Rows, serve.RowSpec{
			TO: []int64{int64(500 + 137*i%900), int64(i % 3)},
			PO: []string{spec.Orders[0].Values[i%4]},
		})
	}
	postJSON(t, base+"/tables", spec, nil)
	for i := 0; i < 4; i++ {
		req := serve.BatchRequest{
			Remove: []int{i},
			Add:    []serve.RowSpec{{TO: []int64{int64(100 + i), 0}, PO: []string{"d"}}},
		}
		var resp serve.BatchResponse
		postJSON(t, base+"/tables/flights/rows:batch", req, &resp)
		if resp.Version != int64(i+1) {
			t.Fatalf("batch %d: version %d", i, resp.Version)
		}
	}
	var statsBefore serve.StatsResponse
	getJSON(t, base+"/statsz", &statsBefore)
	var skylineBefore serve.QueryResponse
	postJSON(t, base+"/tables/flights/query", forcedSkyline, &skylineBefore)

	// SIGTERM and wait for a clean exit.
	if err := proc.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := proc.Wait(); err != nil {
		t.Fatalf("server exit: %v", err)
	}

	// Epoch 2: restart on the same data dir.
	proc2 := startServer(t, bin, addr, dataDir)
	defer func() {
		proc2.Process.Signal(syscall.SIGTERM)
		proc2.Wait()
	}()

	var statsAfter serve.StatsResponse
	getJSON(t, base+"/statsz", &statsAfter)
	if !statsAfter.Durable {
		t.Fatal("restarted server not durable")
	}
	if len(statsAfter.Tables) != 1 {
		t.Fatalf("recovered %d tables", len(statsAfter.Tables))
	}
	got, want := statsAfter.Tables[0], statsBefore.Tables[0]
	if got.Version != want.Version || got.Rows != want.Rows {
		t.Fatalf("recovered table %+v, want version=%d rows=%d", got, want.Version, want.Rows)
	}
	var skylineAfter serve.QueryResponse
	postJSON(t, base+"/tables/flights/query", forcedSkyline, &skylineAfter)
	if skylineAfter.Version != skylineBefore.Version || skylineAfter.Count != skylineBefore.Count {
		t.Fatalf("skyline version/count %d/%d, want %d/%d",
			skylineAfter.Version, skylineAfter.Count, skylineBefore.Version, skylineBefore.Count)
	}
	if !reflect.DeepEqual(skylineAfter.Skyline, skylineBefore.Skyline) {
		t.Fatalf("skyline rows diverge:\n got %v\nwant %v", skylineAfter.Skyline, skylineBefore.Skyline)
	}

	// And the recovered table keeps accepting batches at the next
	// version.
	var resp serve.BatchResponse
	postJSON(t, base+"/tables/flights/rows:batch",
		serve.BatchRequest{Add: []serve.RowSpec{{TO: []int64{1, 1}, PO: []string{"a"}}}}, &resp)
	if resp.Version != want.Version+1 {
		t.Fatalf("post-restart batch version %d, want %d", resp.Version, want.Version+1)
	}
}

func startServer(t *testing.T, bin, addr, dataDir string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, "-addr", addr, "-data-dir", dataDir, "-checkpoint-every", "2048")
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Wait for readiness.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return cmd
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	cmd.Process.Kill()
	t.Fatal("server never became healthy")
	return nil
}

func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port
}

// forcedSkyline is a table's skyline with SFS forced and the memo
// bypassed — on a stream, the progressive scan.
var forcedSkyline = serve.QueryRequest{Algo: "sfs", NoCache: true}

func postJSON(t *testing.T, url string, body, out any) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		t.Fatalf("POST %s: HTTP %d", url, resp.StatusCode)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}
