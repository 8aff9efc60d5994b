package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"

	tss "repro"
)

// TestConcurrentQueriesDuringMutations is the server's consistency
// stress test (run it under -race): N reader goroutines issue static
// skylines and dynamic per-request-DAG queries while M writer
// goroutines apply batched row additions. Every response must be
// internally consistent with *some* published snapshot — identified by
// its version — which the test verifies post-hoc by replaying the
// mutation log and recomputing each answered query on the
// reconstructed table.
func TestConcurrentQueriesDuringMutations(t *testing.T) {
	const (
		readers          = 4
		writers          = 2
		queriesPerReader = 25
		batchesPerWriter = 6
	)

	spec := flightsSpec("flights")
	s := New(8)
	if _, err := s.CreateTable(spec); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The per-request preference DAG pool (all over labels a..d).
	dagPool := [][][2]string{
		{{"a", "b"}, {"a", "c"}, {"b", "d"}, {"c", "d"}},
		{{"b", "a"}},
		{},
		{{"d", "a"}, {"d", "b"}},
	}

	// Mutation log: version → the batch that produced it. Writers
	// record under a lock; versions are unique because applyBatch
	// serializes and bumps by one.
	var mu sync.Mutex
	batches := map[int64][]RowSpec{}
	type obs struct {
		version int64
		rows    int
		dag     int // index into dagPool, -1 = static skyline
		skyline []SkylineRow
	}
	var observations []obs

	var wg sync.WaitGroup
	errCh := make(chan error, readers+writers)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batchesPerWriter; b++ {
				// Deterministic, writer-distinct rows.
				add := []RowSpec{
					{TO: []int64{int64(300 + 100*w + b), int64(b % 3)}, PO: []string{"b"}},
					{TO: []int64{int64(2500 + 10*w + b), int64(3 + b%2)}, PO: []string{"d"}},
				}
				var resp BatchResponse
				code := doJSON(t, http.MethodPost, ts.URL+"/tables/flights/rows:batch",
					BatchRequest{Add: add}, &resp)
				if code != http.StatusOK {
					errCh <- fmt.Errorf("writer %d batch %d: HTTP %d", w, b, code)
					return
				}
				mu.Lock()
				batches[resp.Version] = add
				mu.Unlock()
			}
		}(w)
	}

	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			for q := 0; q < queriesPerReader; q++ {
				var out QueryResponse
				dag := -1
				var code int
				if q%3 == 0 {
					code = doJSON(t, http.MethodPost, ts.URL+"/tables/flights/query", forcedSkyline, &out)
				} else {
					dag = (rd + q) % len(dagPool)
					req := QueryRequest{Orders: []QueryOrder{{Edges: dagPool[dag]}}}
					code = doJSON(t, http.MethodPost, ts.URL+"/tables/flights/query", req, &out)
				}
				if code != http.StatusOK {
					errCh <- fmt.Errorf("reader %d query %d: HTTP %d", rd, q, code)
					return
				}
				mu.Lock()
				observations = append(observations, obs{
					version: out.Version, rows: out.Rows, dag: dag, skyline: out.Skyline,
				})
				mu.Unlock()
			}
		}(rd)
	}

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Replay: table state at version v = initial rows + batches 1..v in
	// version order.
	versions := make([]int64, 0, len(batches))
	for v := range batches {
		versions = append(versions, v)
	}
	sort.Slice(versions, func(i, j int) bool { return versions[i] < versions[j] })
	if len(versions) != writers*batchesPerWriter {
		t.Fatalf("recorded %d batch versions, want %d", len(versions), writers*batchesPerWriter)
	}
	rowsAt := map[int64][]RowSpec{0: spec.Rows}
	cur := append([]RowSpec(nil), spec.Rows...)
	for _, v := range versions {
		cur = append(append([]RowSpec(nil), cur...), batches[v]...)
		rowsAt[v] = cur
	}

	// Recompute each observed query against its snapshot's rows.
	expected := map[string][]string{} // "version/dag" → sorted skyline value keys
	for _, o := range observations {
		rows, ok := rowsAt[o.version]
		if !ok {
			t.Fatalf("response names unpublished version %d", o.version)
		}
		if o.rows != len(rows) {
			t.Fatalf("version %d: response says %d rows, snapshot had %d", o.version, o.rows, len(rows))
		}
		key := fmt.Sprintf("%d/%d", o.version, o.dag)
		want, ok := expected[key]
		if !ok {
			want = computeSkyline(t, spec, rows, o.dag, dagPool)
			expected[key] = want
		}
		got := make([]string, len(o.skyline))
		for i, r := range o.skyline {
			got[i] = rowKey(r.TO, r.PO)
		}
		sort.Strings(got)
		if strings.Join(got, ";") != strings.Join(want, ";") {
			t.Fatalf("version %d dag %d: skyline %v inconsistent with snapshot (want %v)",
				o.version, o.dag, got, want)
		}
	}
}

// computeSkyline answers one observed query locally on a fresh table
// built from the reconstructed snapshot rows.
func computeSkyline(t *testing.T, spec TableSpec, rows []RowSpec, dag int, dagPool [][][2]string) []string {
	t.Helper()
	makeOrder := func(edges [][2]string) *tss.Order {
		o := tss.NewOrder(spec.Orders[0].Values...)
		for _, e := range edges {
			o.Prefer(e[0], e[1])
		}
		return o
	}
	table := tss.NewTable(spec.TOColumns, makeOrder(spec.Orders[0].Edges))
	for _, r := range rows {
		table.MustAdd(r.TO, r.PO...)
	}
	var sky []int
	if dag < 0 {
		sky = table.Skyline()
	} else {
		res, err := table.PrepareDynamic().Query(makeOrder(dagPool[dag]))
		if err != nil {
			t.Fatal(err)
		}
		sky = res.Rows
	}
	keys := make([]string, len(sky))
	for i, row := range sky {
		to, po := table.RowValues(row)
		keys[i] = rowKey(to, po)
	}
	sort.Strings(keys)
	return keys
}

func rowKey(to []int64, po []string) string {
	return fmt.Sprintf("%v|%v", to, po)
}
