package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/poset"
	"repro/internal/store"
)

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReadDAG(t *testing.T) {
	dir := t.TempDir()
	path := writeFile(t, dir, "dag.txt", "4\n0 1\n0 2\n# comment\n1 3\n2 3\n")
	dag, err := data.ReadDAGFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if dag.N() != 4 || dag.Edges() != 4 {
		t.Fatalf("N=%d edges=%d", dag.N(), dag.Edges())
	}
	if err := dag.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReadDAGErrors(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"empty.txt":    "",
		"badcount.txt": "x\n",
		"badedge.txt":  "2\n0 zero\n",
		"oob.txt":      "2\n0 5\n",
	} {
		path := writeFile(t, dir, name, content)
		if _, err := data.ReadDAGFile(path); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	if _, err := data.ReadDAGFile(filepath.Join(dir, "missing.txt")); err == nil {
		t.Error("missing file: expected error")
	}
}

func TestReadDataAndSkyline(t *testing.T) {
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
	// The flights example: airlines a..d = 0..3.
	csv := "to_0,to_1,po_0\n" +
		"1800,0,0\n2000,0,0\n1800,0,1\n1200,1,1\n1400,1,0\n" +
		"1000,1,1\n1000,1,3\n1800,1,2\n500,2,3\n1200,2,2\n"
	dataPath := writeFile(t, dir, "data.csv", csv)
	ds, err := data.ReadCSVDataset(dataPath, []*poset.Domain{dom})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Pts) != 10 || ds.NumTO() != 2 || ds.NumPO() != 1 {
		t.Fatalf("shape: n=%d to=%d po=%d", len(ds.Pts), ds.NumTO(), ds.NumPO())
	}
	got := map[int32]bool{}
	for _, id := range ds.NaiveSkyline() {
		got[id] = true
	}
	// Table I first order: rows 0,4,5,8,9.
	for _, id := range []int32{0, 4, 5, 8, 9} {
		if !got[id] {
			t.Errorf("row %d missing from skyline", id)
		}
	}
	if len(got) != 5 {
		t.Errorf("skyline size %d, want 5", len(got))
	}
}

// runFlags is a local run of the request the flags build.
func runFlags(ds *core.Dataset, cfg clientConfig) (*core.Result, error) {
	req, err := cfg.request()
	if err != nil {
		return nil, err
	}
	res, _, err := runLocal(ds, req, nil)
	return res, err
}

// runStatic is the bare invocation: -method's algorithm forced,
// -parallel's shard count (0 = the planner decides).
func runStatic(ds *core.Dataset, method string, parallel int) (*core.Result, error) {
	return runFlags(ds, clientConfig{method: method, parallel: parallel})
}

// runDynamic is a -querydags (and -ideal) run.
func runDynamic(ds *core.Dataset, queryDAGs, ideal string) (*core.Result, error) {
	return runFlags(ds, clientConfig{method: "stss", queryDAGs: queryDAGs, ideal: ideal})
}

// TestRunStaticAllRegistered: -method works for every registered name
// with no per-algorithm switch — the registry is the single dispatch
// point — and -parallel N returns the same skyline set.
func TestRunStaticAllRegistered(t *testing.T) {
	ds, err := data.ReadCSVDataset(writeFile(t, t.TempDir(), "data.csv",
		"to_0,to_1\n3,1\n1,3\n2,2\n4,4\n2,2\n"), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int32]bool{}
	for _, id := range ds.NaiveSkyline() {
		want[id] = true
	}
	for _, name := range core.AlgorithmNames() {
		for _, parallel := range []int{0, 3} {
			res, err := runStatic(ds, name, parallel)
			if err != nil {
				t.Errorf("%s parallel=%d: %v", name, parallel, err)
				continue
			}
			got := map[int32]bool{}
			for _, id := range res.SkylineIDs {
				got[id] = true
			}
			if len(got) != len(want) {
				t.Errorf("%s parallel=%d: skyline %v", name, parallel, res.SkylineIDs)
			}
			for id := range want {
				if !got[id] {
					t.Errorf("%s parallel=%d: missing row %d", name, parallel, id)
				}
			}
		}
	}
	if _, err := runStatic(ds, "nope", 0); err == nil {
		t.Error("unknown method must error")
	}
}

func TestReadDataErrors(t *testing.T) {
	dir := t.TempDir()
	dom, _ := poset.NewDomain(poset.NewDAG(2))
	cases := map[string]string{
		"badcol.csv":  "foo\n1\n",
		"badnum.csv":  "to_0\nxyz\n",
		"badnum2.csv": "to_0,po_0\n1,zz\n",
	}
	for name, content := range cases {
		path := writeFile(t, dir, name, content)
		domains := []*poset.Domain{dom}
		if name == "badnum.csv" {
			domains = nil
		}
		if _, err := data.ReadCSVDataset(path, domains); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	// Mismatched DAG count.
	path := writeFile(t, dir, "mismatch.csv", "to_0,po_0\n1,0\n")
	if _, err := data.ReadCSVDataset(path, nil); err == nil {
		t.Error("po column without DAG: expected error")
	}
}

// TestStoreSaveLoadRoundTrip: tables:save into a store directory, load
// back, and the dataset — domains included — answers identically.
func TestStoreSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	dagPath := writeFile(t, dir, "dag.txt", "4\n0 1\n0 2\n1 3\n2 3\n")
	csv := "to_0,to_1,po_0\n" +
		"1800,0,0\n2000,0,0\n1800,0,1\n1200,1,1\n1400,1,0\n" +
		"1000,1,1\n1000,1,3\n1800,1,2\n500,2,3\n1200,2,2\n"
	dataPath := writeFile(t, dir, "data.csv", csv)
	domains, err := data.ReadDomains([]string{dagPath})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := data.ReadCSVDataset(dataPath, domains)
	if err != nil {
		t.Fatal(err)
	}

	storeDir := filepath.Join(dir, "store")
	st, err := store.OpenDisk(storeDir, store.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := data.DatasetSnapshot(ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveSnapshot("w", snap); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := store.OpenDisk(storeDir, store.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	snap2, err := st2.Load("w")
	if err != nil {
		t.Fatal(err)
	}
	ds2, err := data.DatasetFromSnapshot(snap2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds2.Pts) != len(ds.Pts) {
		t.Fatalf("rows %d, want %d", len(ds2.Pts), len(ds.Pts))
	}
	want := fmt.Sprint(ds.NaiveSkyline())
	if got := fmt.Sprint(ds2.NaiveSkyline()); got != want {
		t.Fatalf("skyline after round trip %s, want %s", got, want)
	}
	// Static and dynamic query paths agree too.
	resA, err := runStatic(ds, "stss", 0)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := runStatic(ds2, "stss", 0)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(resA.SkylineIDs) != fmt.Sprint(resB.SkylineIDs) {
		t.Fatalf("stss after round trip %v, want %v", resB.SkylineIDs, resA.SkylineIDs)
	}
	resC, err := runDynamic(ds2, dagPath, "")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(slices.Sorted(slices.Values(resC.SkylineIDs)), slices.Sorted(slices.Values(resA.SkylineIDs))) {
		t.Fatalf("-querydags after round trip %v, want %v", resC.SkylineIDs, resA.SkylineIDs)
	}
}
