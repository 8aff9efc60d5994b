package rtree

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func randomPoints(rng *rand.Rand, n, dims, maxCoord int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		c := make([]int32, dims)
		for d := range c {
			c[d] = int32(rng.Intn(maxCoord))
		}
		pts[i] = Point{Coords: c, ID: int32(i)}
	}
	return pts
}

func collectIDs(t *Tree, lo, hi []int32) []int32 {
	var ids []int32
	t.SearchRange(lo, hi, func(e Entry) bool {
		ids = append(ids, e.ID)
		return true
	})
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func scanIDs(pts []Point, lo, hi []int32) []int32 {
	var ids []int32
	for _, p := range pts {
		in := true
		for d := range lo {
			if p.Coords[d] < lo[d] || p.Coords[d] > hi[d] {
				in = false
				break
			}
		}
		if in {
			ids = append(ids, p.ID)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TestBulkLoadQueryMatchesScan: range queries over a bulk-loaded tree
// return exactly the linear-scan answer.
func TestBulkLoadQueryMatchesScan(t *testing.T) {
	prop := func(seed int64, nRaw uint16, dimsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%500) + 1
		dims := int(dimsRaw%4) + 2
		pts := randomPoints(rng, n, dims, 100)
		tr := BulkLoad(dims, clonePoints(pts), 8, nil)
		if tr.Len() != n {
			return false
		}
		for trial := 0; trial < 10; trial++ {
			lo := make([]int32, dims)
			hi := make([]int32, dims)
			for d := range lo {
				a, b := int32(rng.Intn(100)), int32(rng.Intn(100))
				if a > b {
					a, b = b, a
				}
				lo[d], hi[d] = a, b
			}
			if !slices.Equal(collectIDs(tr, lo, hi), scanIDs(pts, lo, hi)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestInsertQueryMatchesScan: the same property for incrementally built
// trees, at a small fan-out and at the in-memory dominance tree's 16,
// with duplicate coordinates (equal skyline members give equal virtual
// points).
func TestInsertQueryMatchesScan(t *testing.T) {
	prop := func(seed int64, nRaw uint16, dimsRaw uint8, wide bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%300) + 1
		dims := int(dimsRaw%3) + 2
		capacity := 6
		if wide {
			capacity = 16
		}
		pts := withDuplicates(rng, randomPoints(rng, n, dims, 60))
		tr := New(dims, capacity, nil)
		for _, p := range pts {
			tr.Insert(p)
		}
		if tr.Len() != n {
			return false
		}
		for trial := 0; trial < 10; trial++ {
			lo := make([]int32, dims)
			hi := make([]int32, dims)
			for d := range lo {
				a, b := int32(rng.Intn(60)), int32(rng.Intn(60))
				if a > b {
					a, b = b, a
				}
				lo[d], hi[d] = a, b
			}
			if !slices.Equal(collectIDs(tr, lo, hi), scanIDs(pts, lo, hi)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// withDuplicates gives about a quarter of the points the coordinates of
// an earlier point (keeping their own ids).
func withDuplicates(rng *rand.Rand, pts []Point) []Point {
	for i := 1; i < len(pts); i++ {
		if rng.Intn(4) == 0 {
			pts[i].Coords = pts[rng.Intn(i)].Coords
		}
	}
	return pts
}

func clonePoints(pts []Point) []Point {
	out := make([]Point, len(pts))
	copy(out, pts)
	return out
}

// TestStructuralInvariants: every entry's MBB is exactly its child's,
// leaves are all at the same depth, node occupancy is within [1, max]
// (bulk load) or [min, max] below the root (insertion), and the size and
// node counters match the tree.
func TestStructuralInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 7, 8, 9, 64, 65, 500, 2000} {
		pts := randomPoints(rng, n, 3, 1000)
		tr := BulkLoad(3, pts, 8, nil)
		checkInvariants(t, tr, false)
	}
	// Incremental builds, at the in-memory dominance tree's fan-out too,
	// with and without duplicate coordinates.
	for _, capacity := range []int{8, 16} {
		for _, maxCoord := range []int{1000, 8} {
			tr := New(3, capacity, nil)
			for _, p := range withDuplicates(rng, randomPoints(rng, 500, 3, maxCoord)) {
				tr.Insert(p)
			}
			checkInvariants(t, tr, true)
		}
	}
}

func checkInvariants(t *testing.T, tr *Tree, minFill bool) {
	t.Helper()
	leafDepth := -1
	count, nodes := 0, 0
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		nodes++
		if len(n.Entries) == 0 && tr.Len() > 0 {
			t.Fatal("empty node in non-empty tree")
		}
		if len(n.Entries) > tr.maxEntries {
			t.Fatalf("node overflow: %d > %d", len(n.Entries), tr.maxEntries)
		}
		if minFill && n != tr.root && len(n.Entries) < tr.minEntries {
			t.Fatalf("node at depth %d underfull: %d < %d", depth, len(n.Entries), tr.minEntries)
		}
		for _, e := range n.Entries {
			if n.Leaf {
				count++
				if !e.IsLeafEntry() {
					t.Fatal("internal entry in leaf")
				}
				continue
			}
			if e.IsLeafEntry() {
				t.Fatal("leaf entry in internal node")
			}
			lo, hi := mbbOf(e.child, tr.dims)
			for d := range lo {
				if e.Lo[d] != lo[d] || e.Hi[d] != hi[d] {
					t.Fatalf("stale MBB at depth %d: entry [%v %v], child [%v %v]", depth, e.Lo, e.Hi, lo, hi)
				}
			}
			walk(e.child, depth+1)
		}
		if n.Leaf {
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				t.Fatal("leaves at different depths")
			}
		}
	}
	walk(tr.root, 1)
	if count != tr.Len() {
		t.Fatalf("point count %d, Len() %d", count, tr.Len())
	}
	if nodes != tr.NodeCount() {
		t.Fatalf("walked %d nodes, NodeCount() %d", nodes, tr.NodeCount())
	}
	if leafDepth != tr.Height() {
		t.Fatalf("leaf depth %d, Height() %d", leafDepth, tr.Height())
	}
}

// walk visits every node of the tree through rd, as a traversal that
// prunes nothing would.
func walk(rd *Reader) {
	var open func(n *Node)
	open = func(n *Node) {
		if n.Leaf {
			return
		}
		for _, e := range n.Entries {
			open(rd.Open(e))
		}
	}
	open(rd.Root())
}

func TestIOAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	io := &IOCounter{}
	pts := randomPoints(rng, 200, 2, 100)
	tr := BulkLoad(2, pts, 8, io)
	if io.Writes != int64(tr.NodeCount()) {
		t.Errorf("bulk load writes = %d, want node count %d", io.Writes, tr.NodeCount())
	}
	if io.Reads != 0 {
		t.Errorf("bulk load should not read, got %d", io.Reads)
	}
	rdIO := &IOCounter{}
	rd := tr.NewReader(rdIO, nil)
	rd.Root()
	if rdIO.Reads != 1 {
		t.Error("Reader.Root() must charge one read")
	}
	rd.RootNoIO()
	if rdIO.Reads != 1 {
		t.Error("Reader.RootNoIO() must not charge")
	}
	rdIO.Reads = 0
	walk(rd)
	if rdIO.Reads != int64(tr.NodeCount()) || io.Reads != 0 {
		t.Errorf("full walk charged the reader %d and the tree %d reads, want %d and 0", rdIO.Reads, io.Reads, tr.NodeCount())
	}
	tr.SearchRange([]int32{0, 0}, []int32{99, 99}, func(Entry) bool { return true })
	if io.Reads != int64(tr.NodeCount()) {
		t.Errorf("full-range search read %d nodes, want %d", io.Reads, tr.NodeCount())
	}
	// A nil-counter tree or reader never panics on accounting paths.
	free := BulkLoad(2, randomPoints(rng, 50, 2, 100), 8, nil)
	walk(free.NewReader(nil, nil))
	free.SearchRange([]int32{0, 0}, []int32{99, 99}, func(Entry) bool { return true })
}

func TestBooleanQueries(t *testing.T) {
	pts := []Point{
		{Coords: []int32{1, 2}, ID: 0},
		{Coords: []int32{5, 5}, ID: 1},
		{Coords: []int32{9, 1}, ID: 2},
	}
	tr := BulkLoad(2, pts, 4, nil)
	if !tr.RangeNonEmpty([]int32{0, 0}, []int32{2, 3}) {
		t.Error("range containing (1,2) reported empty")
	}
	if tr.RangeNonEmpty([]int32{6, 6}, []int32{8, 8}) {
		t.Error("empty range reported non-empty")
	}
	// Predicate form: only accept ID 2.
	ok := tr.RangeExists([]int32{0, 0}, []int32{9, 9}, func(e Entry) bool { return e.ID == 2 })
	if !ok {
		t.Error("RangeExists missed a matching point")
	}
	ok = tr.RangeExists([]int32{0, 0}, []int32{4, 4}, func(e Entry) bool { return e.ID == 2 })
	if ok {
		t.Error("RangeExists matched outside the box")
	}
}

func TestEmptyTree(t *testing.T) {
	tr := New(2, 4, nil)
	if tr.RangeNonEmpty([]int32{0, 0}, []int32{10, 10}) {
		t.Error("empty tree range must be empty")
	}
	bl := BulkLoad(3, nil, 4, nil)
	if bl.Len() != 0 || bl.RangeNonEmpty([]int32{0, 0, 0}, []int32{1, 1, 1}) {
		t.Error("empty bulk load broken")
	}
}

func TestMinDistL1(t *testing.T) {
	e := Entry{Lo: []int32{3, 4, 5}, Hi: []int32{9, 9, 9}}
	if MinDistL1(e) != 12 {
		t.Errorf("MinDistL1 = %d, want 12", MinDistL1(e))
	}
}

func TestCapacityForPage(t *testing.T) {
	if c := CapacityForPage(4096, 3); c != 4096/(3*8+4) {
		t.Errorf("CapacityForPage(4096,3) = %d", c)
	}
	if c := CapacityForPage(16, 8); c != 4 {
		t.Errorf("tiny page should clamp to 4, got %d", c)
	}
}

func TestDuplicatePoints(t *testing.T) {
	// All points identical: tree must hold all of them and return all on
	// a stabbing query.
	pts := make([]Point, 20)
	for i := range pts {
		pts[i] = Point{Coords: []int32{5, 5}, ID: int32(i)}
	}
	tr := BulkLoad(2, clonePoints(pts), 4, nil)
	if got := collectIDs(tr, []int32{5, 5}, []int32{5, 5}); len(got) != 20 {
		t.Errorf("got %d duplicates, want 20", len(got))
	}
	tr2 := New(2, 4, nil)
	for _, p := range pts {
		tr2.Insert(p)
	}
	if got := collectIDs(tr2, []int32{5, 5}, []int32{5, 5}); len(got) != 20 {
		t.Errorf("insert path: got %d duplicates, want 20", len(got))
	}
	checkInvariants(t, tr2, true)
}

func TestAllVisitsEveryPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := randomPoints(rng, 123, 2, 50)
	tr := BulkLoad(2, clonePoints(pts), 8, nil)
	seen := map[int32]bool{}
	tr.All(func(e Entry) { seen[e.ID] = true })
	if len(seen) != 123 {
		t.Errorf("All visited %d points, want 123", len(seen))
	}
}

func TestSearchEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := randomPoints(rng, 200, 2, 10) // dense: many hits
	tr := BulkLoad(2, pts, 8, nil)
	visits := 0
	tr.SearchRange([]int32{0, 0}, []int32{9, 9}, func(Entry) bool {
		visits++
		return visits < 3
	})
	if visits != 3 {
		t.Errorf("early stop visited %d, want 3", visits)
	}
}
