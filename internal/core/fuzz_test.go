package core

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/poset"
)

// fuzzReader decodes a fuzz input byte stream; exhausted input reads
// as zeros, so every byte slice is a valid (if degenerate) workload.
type fuzzReader struct {
	data []byte
	pos  int
}

func (r *fuzzReader) byte() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

// datasetFromBytes derives a small mixed TO/PO dataset from raw bytes:
// 1–2 TO attributes, 0–2 PO attributes with domains of 2–6 values and
// byte-driven forward-edge DAGs (edges always run low → high index, so
// any byte stream yields an acyclic preference order), and up to 24
// points with heavy value collisions (duplicates and ties are the
// interesting cases).
func datasetFromBytes(data []byte) *Dataset {
	r := &fuzzReader{data: data}
	nTO := 1 + int(r.byte())%2
	nPO := int(r.byte()) % 3

	ds := &Dataset{}
	for d := 0; d < nPO; d++ {
		size := 2 + int(r.byte())%5
		dag := poset.NewDAG(size)
		edges := int(r.byte()) % 8
		for e := 0; e < edges; e++ {
			a := int(r.byte()) % size
			b := int(r.byte()) % size
			if a == b {
				continue
			}
			if a > b {
				a, b = b, a
			}
			dag.MustEdge(a, b)
		}
		dom, err := poset.NewDomain(dag)
		if err != nil {
			panic(err) // forward edges only: cycles are impossible
		}
		ds.Domains = append(ds.Domains, dom)
	}

	n := 1 + int(r.byte())%24
	for i := 0; i < n; i++ {
		p := Point{ID: int32(i)}
		for d := 0; d < nTO; d++ {
			p.TO = append(p.TO, int32(r.byte())%8)
		}
		for d := 0; d < nPO; d++ {
			p.PO = append(p.PO, int32(r.byte())%int32(ds.Domains[d].Size()))
		}
		ds.Pts = append(ds.Pts, p)
	}
	return ds
}

func sortedIDs(ids []int32) []int32 {
	out := append([]int32(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func idsEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// domScanWithBudget is NewDomScan under an explicit closure budget, so
// the tests reach the ordinal-bin and TPrefers paths a refused (1) or
// disabled (−1) closure takes.
func domScanWithBudget(ds *Dataset, capHint int, budget int64) *DomScan {
	return newDomScan(ds.Domains, ds.NumTO(), capHint, budget)
}

// checkDomScan is the dominator-scan leg of the harness: over the
// skyline sky as members, DomScan's dominator set of every row must
// equal the scalar DominatesUnder set, under the given closure budget.
func checkDomScan(t *testing.T, ds *Dataset, sky []int32, budget int64) {
	scan := domScanWithBudget(ds, len(sky), budget)
	defer scan.Close()
	for _, m := range sky {
		scan.Add(ds.Pts[m].TO, ds.Pts[m].PO)
	}
	for i := range ds.Pts {
		row := &ds.Pts[i]
		var want []int32
		for j, m := range sky {
			if DominatesUnder(ds.Domains, &ds.Pts[m], row) {
				want = append(want, int32(j))
			}
		}
		if got := scan.Dominators(row.TO, row.PO); !idsEqual(got, want) {
			t.Fatalf("domscan budget=%d: row %d dominators %v, scalar %v (sky %v)", budget, i, got, want, sky)
		}
		if got := scan.Any(row.TO, row.PO); got != (len(want) > 0) {
			t.Fatalf("domscan budget=%d: row %d Any=%v, scalar dominators %v", budget, i, got, want)
		}
	}
}

// cursorTrace is everything a consumer can observe of one sTSS cursor
// drain that the checker must not influence.
type cursorTrace struct {
	ids                             []int64
	opened, pruned, points, readIOs int64
}

func drainTrace(c *Cursor) cursorTrace {
	var tr cursorTrace
	for id, ok := c.Next(); ok; id, ok = c.Next() {
		tr.ids = append(tr.ids, int64(id))
	}
	m := c.Metrics()
	tr.opened, tr.pruned, tr.points, tr.readIOs = m.NodesOpened, m.NodesPruned, m.PointsPruned, m.ReadIOs
	return tr
}

// checkCursorSequences is the emission-sequence leg of the harness: the
// order sTSS emits in is the heap's (mindist key, ties by insertion),
// and every checker prunes exactly the dominated entries, so the kernel
// checker (with and without the closure bitsets), the bare list checker
// (NoKernel) and the memtree in both point-check forms must emit the
// identical id sequence with identical traversal counters.
// Capacity 3 makes even these tiny datasets multi-level trees, so box
// pruning takes part.
func checkCursorSequences(t *testing.T, ds *Dataset) {
	for _, capacity := range []int{0, 3} {
		base := Options{Capacity: capacity}
		want := drainTrace(NewSTSSCursor(ds, base))
		list, noclosure, mem, stab := base, base, base, base
		list.NoKernel = true
		noclosure.ClosureBudget = -1
		mem.UseMemTree = true
		stab.UseMemTree, stab.StabOnly = true, true
		for _, leg := range []struct {
			name string
			cur  *Cursor
		}{
			{"list", NewSTSSCursor(ds, list)},
			{"kernel-noclosure", NewSTSSCursor(ds, noclosure)},
			{"memtree", NewSTSSCursor(ds, mem)},
			{"memtree-stab", NewSTSSCursor(ds, stab)},
		} {
			if got := drainTrace(leg.cur); !reflect.DeepEqual(got, want) {
				t.Fatalf("cursor %s (capacity %d): trace %+v, kernel checker %+v", leg.name, capacity, got, want)
			}
		}
	}
}

// FuzzSkylineAgreement is the differential fuzz harness: every
// registered algorithm — sequential and behind the partition-and-merge
// executor at P ∈ {1, 4}, across the dominance-kernel configurations
// (bitset closure, closure refused by a too-small budget, closure
// disabled, kernel off entirely) — must return exactly the naive O(n²)
// oracle's skyline on any byte-derived workload, TO-only algorithms
// must reject PO datasets with an error rather than a wrong answer, and
// the ranking layer's dominator scan must agree with scalar dominance
// under the same closure configurations. The sTSS cursor additionally
// emits one id *sequence* whatever its checker (checkCursorSequences).
// Runs its seed corpus (testdata/fuzz/…) under plain `go test`; explore
// further with
//
//	go test -run='^$' -fuzz=FuzzSkylineAgreement ./internal/core
func FuzzSkylineAgreement(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 4, 6, 0, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{0, 1, 3, 3, 0, 1, 0, 2, 1, 2, 12, 5, 0, 5, 1, 5, 2, 5, 0, 1, 1, 2, 2, 0})
	f.Add([]byte{1, 0, 9, 3, 3, 3, 3, 3, 3, 3, 3, 3}) // TO-only, duplicate-heavy
	f.Fuzz(func(t *testing.T, data []byte) {
		ds := datasetFromBytes(data)
		if err := ds.Validate(); err != nil {
			t.Fatalf("generated invalid dataset: %v", err)
		}
		want := sortedIDs(ds.NaiveSkyline())

		// A refused 1-byte budget builds nothing, so the domains are still
		// fresh for the first algorithm's tinybudget leg below; the scan's
		// closure-building legs wait until after the algorithms.
		checkDomScan(t, ds, want, 1)

		for _, a := range append(Algorithms(), Baselines()...) {
			runs := []struct {
				name string
				run  func() (*Result, error)
			}{
				// tinybudget goes first: on the first algorithm the domains
				// are fresh, so a 1-byte closure budget genuinely refuses
				// (EnableClosure is sticky once a later leg builds it) and
				// the kernel's interval fallback is exercised right at the
				// memory-budget boundary.
				{"tinybudget", func() (*Result, error) {
					return a.Run(ds, Options{UseMemTree: true, ClosureBudget: 1})
				}},
				{"seq", func() (*Result, error) {
					return a.Run(ds, Options{UseMemTree: true})
				}},
				{"noclosure", func() (*Result, error) {
					return a.Run(ds, Options{UseMemTree: true, ClosureBudget: -1})
				}},
				{"nokernel", func() (*Result, error) {
					return a.Run(ds, Options{UseMemTree: true, NoKernel: true})
				}},
				{"P=1", func() (*Result, error) {
					return Parallel(a).Run(ds, Options{UseMemTree: true, Parallelism: 1})
				}},
				{"P=4", func() (*Result, error) {
					return Parallel(a).Run(ds, Options{UseMemTree: true, Parallelism: 4})
				}},
				{"P=4/nokernel", func() (*Result, error) {
					return Parallel(a).Run(ds, Options{UseMemTree: true, Parallelism: 4, NoKernel: true})
				}},
			}
			for _, rn := range runs {
				res, err := rn.run()
				if !a.Capabilities().POCapable && ds.NumPO() > 0 {
					if err == nil {
						t.Fatalf("%s/%s: TO-only algorithm accepted a PO dataset", a.Name(), rn.name)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s/%s: %v", a.Name(), rn.name, err)
				}
				got := sortedIDs(res.SkylineIDs)
				if !idsEqual(got, want) {
					t.Fatalf("%s/%s: skyline %v, oracle %v (n=%d, TO=%d, PO=%d)",
						a.Name(), rn.name, got, want, len(ds.Pts), ds.NumTO(), ds.NumPO())
				}
			}
		}
		checkDomScan(t, ds, want, 0)
		checkDomScan(t, ds, want, -1)
		checkCursorSequences(t, ds)
	})
}
