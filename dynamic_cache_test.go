package tss

import "testing"

// orderStep builds one query order over the flights labels a..d from an
// edge list; edges is applied in slice order, so the same preference
// set can be constructed in different ways.
type orderStep struct {
	edges    [][2]string
	wantHit  bool
	wantRows int // expected skyline size (0 = don't check)
}

func buildOrder(edges [][2]string) *Order {
	o := NewOrder("a", "b", "c", "d")
	for _, e := range edges {
		o.Prefer(e[0], e[1])
	}
	return o
}

// TestCacheTableDriven pins the facade cache's contract: FIFO eviction
// order, hit/miss accounting, capacity clamping, and the canonical-form
// keying promise — the same preference DAG rebuilt differently (edge
// order permuted, duplicate edges) must hit. The two endpoints of the
// capacity range are cases too: a cache that was never enabled neither
// hits nor counts, and one that holds every distinct query hits on
// every repeat.
func TestCacheTableDriven(t *testing.T) {
	// Distinct single-edge preference orders used as cache keys.
	qA := [][2]string{{"a", "b"}}
	qB := [][2]string{{"b", "a"}}
	qC := [][2]string{{"c", "d"}}
	qD := [][2]string{{"d", "c"}}

	cases := []struct {
		name       string
		capacity   int
		neverOn    bool // skip EnableCache altogether
		steps      []orderStep
		wantHits   int64
		wantMisses int64
	}{
		{
			name:     "repeat hits",
			capacity: 4,
			steps: []orderStep{
				{edges: qA}, {edges: qA, wantHit: true}, {edges: qA, wantHit: true},
			},
			wantHits: 2, wantMisses: 1,
		},
		{
			name:    "never enabled",
			neverOn: true,
			steps:   []orderStep{{edges: qA}, {edges: qA}, {edges: qB}, {edges: qA}},
		},
		{
			name:     "capacity covers every distinct query",
			capacity: 4,
			steps: []orderStep{
				{edges: qA}, {edges: qB}, {edges: qC}, {edges: qD},
				{edges: qA, wantHit: true}, {edges: qD, wantHit: true},
				{edges: qB, wantHit: true}, {edges: qC, wantHit: true},
				{edges: qA, wantHit: true},
			},
			wantHits: 5, wantMisses: 4,
		},
		{
			name:     "fifo eviction order",
			capacity: 2,
			steps: []orderStep{
				{edges: qA},                // cache: [A]
				{edges: qB},                // cache: [A B]
				{edges: qC},                // A evicted, cache: [B C]
				{edges: qB, wantHit: true}, // FIFO, not LRU: B stays put
				{edges: qC, wantHit: true},
				{edges: qA},                // miss: evicts B, cache: [C A]
				{edges: qC, wantHit: true}, // C still resident
				{edges: qB},                // miss again
			},
			wantHits: 3, wantMisses: 5,
		},
		{
			name:     "capacity clamps to one",
			capacity: 0, // EnableCache clamps < 1 to 1
			steps: []orderStep{
				{edges: qA},
				{edges: qA, wantHit: true},
				{edges: qB}, // evicts A
				{edges: qA}, // miss
			},
			wantHits: 1, wantMisses: 3,
		},
		{
			name:     "canonical form keying",
			capacity: 4,
			steps: []orderStep{
				{edges: [][2]string{{"a", "b"}, {"c", "d"}, {"a", "c"}}},
				// Same DAG, edges permuted.
				{edges: [][2]string{{"a", "c"}, {"a", "b"}, {"c", "d"}}, wantHit: true},
				// Same DAG, duplicate edge inserted.
				{edges: [][2]string{{"c", "d"}, {"a", "b"}, {"a", "b"}, {"a", "c"}}, wantHit: true},
				// A genuinely different DAG misses.
				{edges: [][2]string{{"a", "b"}, {"c", "d"}}},
			},
			wantHits: 2, wantMisses: 2,
		},
		{
			name:     "empty order is a key too",
			capacity: 2,
			steps: []orderStep{
				{edges: nil, wantRows: 8},
				{edges: nil, wantHit: true, wantRows: 8},
				{edges: qD},
				{edges: qD, wantHit: true},
			},
			wantHits: 2, wantMisses: 2,
		},
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dyn := flightsTable(order1()).PrepareDynamic()
			if !c.neverOn {
				dyn.EnableCache(c.capacity)
			}
			for i, step := range c.steps {
				res, err := dyn.Query(buildOrder(step.edges))
				if err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				if res.CacheHit != step.wantHit {
					t.Fatalf("step %d: CacheHit=%v, want %v", i, res.CacheHit, step.wantHit)
				}
				if step.wantHit && res.Stats.PageReads != 0 {
					t.Fatalf("step %d: cache hit charged %d page reads", i, res.Stats.PageReads)
				}
				if step.wantRows > 0 && len(res.Rows) != step.wantRows {
					t.Fatalf("step %d: %d rows, want %d", i, len(res.Rows), step.wantRows)
				}
			}
			hits, misses := dyn.CacheStats()
			if hits != c.wantHits || misses != c.wantMisses {
				t.Fatalf("stats hits=%d misses=%d, want %d/%d", hits, misses, c.wantHits, c.wantMisses)
			}
		})
	}
}

// TestCacheHitMatchesComputation: a cached answer must equal the
// freshly computed one, row for row.
func TestCacheHitMatchesComputation(t *testing.T) {
	dyn := flightsTable(order1()).PrepareDynamic()
	dyn.EnableCache(2)
	q := func() *Order { return buildOrder([][2]string{{"d", "a"}, {"c", "a"}}) }
	fresh, err := dyn.Query(q())
	if err != nil {
		t.Fatal(err)
	}
	cached, err := dyn.Query(q())
	if err != nil {
		t.Fatal(err)
	}
	if !cached.CacheHit || fresh.CacheHit {
		t.Fatalf("hit flags: fresh=%v cached=%v", fresh.CacheHit, cached.CacheHit)
	}
	if len(fresh.Rows) != len(cached.Rows) {
		t.Fatalf("cached %d rows, fresh %d", len(cached.Rows), len(fresh.Rows))
	}
	for i := range fresh.Rows {
		if fresh.Rows[i] != cached.Rows[i] {
			t.Fatalf("row %d differs: %d vs %d", i, fresh.Rows[i], cached.Rows[i])
		}
	}
}

// TestCacheIgnoresIdealQueries: fully dynamic (ideal-point) queries
// bypass the preference-DAG cache entirely — they never hit and never
// pollute the stats.
func TestCacheIgnoresIdealQueries(t *testing.T) {
	dyn := flightsTable(order1()).PrepareDynamic()
	dyn.EnableCache(4)
	q := func() *Order { return buildOrder([][2]string{{"a", "b"}}) }
	if _, err := dyn.QueryAt([]int64{1200, 1}, q()); err != nil {
		t.Fatal(err)
	}
	if _, err := dyn.QueryAt([]int64{1200, 1}, q()); err != nil {
		t.Fatal(err)
	}
	if hits, misses := dyn.CacheStats(); hits != 0 || misses != 0 {
		t.Fatalf("ideal queries touched the cache: hits=%d misses=%d", hits, misses)
	}
}

// TestReprepareCarriesCacheConfig: the re-prepare hook (ApplyDelta)
// starts with a fresh cache of the same capacity.
func TestReprepareCarriesCacheConfig(t *testing.T) {
	table := flightsTable(order1())
	dyn := table.PrepareDynamic()
	dyn.EnableCache(3)
	if _, err := dyn.Query(buildOrder(nil)); err != nil {
		t.Fatal(err)
	}

	grown, delta, err := table.ApplyBatch(nil, []TableRow{{TO: []int64{100, 0}, PO: []string{"a"}}})
	if err != nil {
		t.Fatal(err)
	}
	nd := dyn.ApplyDelta(grown, delta)
	if nd.Table() != grown {
		t.Fatal("ApplyDelta must bind the new table")
	}
	if hits, misses := nd.CacheStats(); hits != 0 || misses != 0 {
		t.Fatalf("re-prepared cache not fresh: %d/%d", hits, misses)
	}
	// The cache is live (capacity carried over): repeat query hits.
	if _, err := nd.Query(buildOrder(nil)); err != nil {
		t.Fatal(err)
	}
	res, err := nd.Query(buildOrder(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Fatal("capacity not carried over: repeat query missed")
	}
	// And the new snapshot sees the new row.
	found := false
	for _, r := range res.Rows {
		if to, _ := grown.RowValues(r); to[0] == 100 {
			found = true
		}
	}
	if !found {
		t.Fatal("re-prepared database misses the appended row")
	}
	// The original Dynamic still answers from the old rows.
	old, err := dyn.Query(buildOrder(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(old.Rows) == len(res.Rows) {
		t.Fatalf("old snapshot changed: %d rows vs %d", len(old.Rows), len(res.Rows))
	}
}

// TestFilterSnapshot: Filter copies surviving rows with consecutive
// renumbering and leaves the original untouched.
func TestFilterSnapshot(t *testing.T) {
	table := flightsTable(order1())
	kept := table.Filter(func(row int) bool { return row%2 == 0 })
	if table.Len() != 10 || kept.Len() != 5 {
		t.Fatalf("lens: %d / %d", table.Len(), kept.Len())
	}
	for i := 0; i < kept.Len(); i++ {
		wantTO, wantPO := table.RowValues(2 * i)
		gotTO, gotPO := kept.RowValues(i)
		if wantTO[0] != gotTO[0] || wantTO[1] != gotTO[1] || wantPO[0] != gotPO[0] {
			t.Fatalf("row %d: got %v/%v want %v/%v", i, gotTO, gotPO, wantTO, wantPO)
		}
	}
	// Renumbered ids stay consistent with skyline row indexes.
	for _, r := range kept.Skyline() {
		if r < 0 || r >= kept.Len() {
			t.Fatalf("skyline row %d out of range", r)
		}
	}
	// Appending to the filtered snapshot leaves the original alone.
	kept.MustAdd([]int64{1, 1}, "a")
	if table.Len() != 10 {
		t.Fatalf("original grew to %d", table.Len())
	}
}
