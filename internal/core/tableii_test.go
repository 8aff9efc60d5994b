package core

import (
	"sync"
	"testing"

	"repro/internal/poset"
	"repro/internal/rtree"
)

// TestTableIIExactTree replays §IV-A on the *exact* R-tree of the
// paper's Figure 3(c): R={N1,N3}, N1={N2,N4,N5}, N3={N6,N7},
// N2={p1,p2,p5}, N4={p9,p10}, N5={p3,p8}, N6={p4,p6,p7},
// N7={p11,p12,p13}. The traversal must discover the skyline
// {p1,p2,p3,p4,p5}, prune both e4 (Table II step 7) and e7 (step 14)
// without opening them, and never open N4 or N7 at all.
func TestTableIIExactTree(t *testing.T) {
	ds := figure3Dataset()
	dm := ds.Domains[0]
	coords := func(id int32) []int32 {
		p := &ds.Pts[id-1]
		return []int32{p.TO[0], dm.Ord(p.PO[0])}
	}
	pt := func(id int32) rtree.Point { return rtree.Point{Coords: coords(id), ID: id - 1} }
	leaf := func(ids ...int32) *rtree.LayoutNode {
		n := &rtree.LayoutNode{}
		for _, id := range ids {
			n.Points = append(n.Points, pt(id))
		}
		return n
	}
	layout := &rtree.LayoutNode{Children: []*rtree.LayoutNode{
		{Children: []*rtree.LayoutNode{ // N1
			leaf(1, 2, 5), // N2
			leaf(9, 10),   // N4
			leaf(3, 8),    // N5
		}},
		{Children: []*rtree.LayoutNode{ // N3
			leaf(4, 6, 7),    // N6
			leaf(11, 12, 13), // N7
		}},
	}}

	io := &rtree.IOCounter{}
	tree := rtree.FromLayout(2, layout, io)
	if tree.Len() != 13 || tree.Height() != 3 {
		t.Fatalf("layout tree: len=%d height=%d", tree.Len(), tree.Height())
	}
	io.Writes, io.Reads = 0, 0

	for _, opt := range []Options{{}, {UseMemTree: true}} {
		res, _ := newTreeCursor(ds, tree.NewReader(io, nil), io, opt.withDefaults()).Drain(nil)
		want := []int32{1, 2, 3, 4, 5}
		if !sameIDSet(res.SkylineIDs, want) {
			t.Fatalf("opt %+v: skyline = %v, want %v", opt, res.SkylineIDs, want)
		}
		// Both N4 and N7 are t-dominated: exactly two subtree prunes.
		if res.Metrics.NodesPruned != 2 {
			t.Errorf("opt %+v: NodesPruned = %d, want 2 (e4 and e7)", opt, res.Metrics.NodesPruned)
		}
		// Opened: R's children N1, N3 and the surviving leaves N2, N5,
		// N6 — never N4 or N7.
		if res.Metrics.NodesOpened != 5 {
			t.Errorf("opt %+v: NodesOpened = %d, want 5", opt, res.Metrics.NodesOpened)
		}
		// Examined-and-pruned points, exactly the bold leaf entries of
		// Table II: p6 (dominated by p1), p7 (by p4), p8 (by p1).
		// p9..p13 live in the pruned N4/N7 and are never examined.
		if res.Metrics.PointsPruned != 3 {
			t.Errorf("opt %+v: PointsPruned = %d, want 3", opt, res.Metrics.PointsPruned)
		}
		io.Writes, io.Reads = 0, 0
	}
}

// TestSTSSConcurrentReads: domains are immutable after construction, so
// concurrent skyline computations over shared domains must race-free
// agree (run with -race in CI).
func TestSTSSConcurrentReads(t *testing.T) {
	ds := figure3Dataset()
	ds.Domains[0].EnableDyadic() // pre-build the index outside the timed region
	want := ds.NaiveSkyline()
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(mem bool) {
			defer wg.Done()
			res := STSS(ds, Options{UseMemTree: mem})
			if !sameIDSet(res.SkylineIDs, want) {
				errs <- "concurrent run disagrees"
			}
		}(i%2 == 0)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestDTSSEmissionPrecedence: within a dTSS run, once a group has been
// left, no later emission may belong to a group whose ordinal sum is
// smaller — the cross-group precedence order.
func TestDTSSEmissionPrecedence(t *testing.T) {
	ds := figure5Dataset()
	db := NewDynamicDB(ds, Options{})
	dag := poset.NewDAG(3)
	dag.MustEdge(1, 2) // b better than c
	dom := poset.MustDomain(dag)
	res, err := db.QueryTSS([]*poset.Domain{dom}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lastOrd := int32(-1)
	for _, id := range res.SkylineIDs {
		ord := dom.Ord(ds.Pts[id-1].PO[0])
		if ord < lastOrd {
			t.Fatalf("emission %d from ordinal %d after ordinal %d", id, ord, lastOrd)
		}
		lastOrd = ord
	}
}

// TestFromLayoutValidation: malformed layouts are rejected.
func TestFromLayoutValidation(t *testing.T) {
	bad := []*rtree.LayoutNode{
		{}, // empty
		{Children: []*rtree.LayoutNode{
			{Points: []rtree.Point{{Coords: []int32{1, 1}, ID: 0}}},
			{Children: []*rtree.LayoutNode{
				{Points: []rtree.Point{{Coords: []int32{2, 2}, ID: 1}}},
			}},
		}}, // ragged depth
	}
	for i, layout := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("layout %d: expected panic", i)
				}
			}()
			rtree.FromLayout(2, layout, nil)
		}()
	}
}
