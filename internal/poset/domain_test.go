package poset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// figure2DAG builds the paper's Figure 2(a) domain: values a..i (0..8),
// spanning-tree edges a→b, b→c, b→d, b→e, c→f, d→g, g→h, g→i and
// non-tree edges a→c, c→g, e→g, f→h. The explicit tree parents reproduce
// the paper's spanning tree exactly.
func figure2DAG() (*DAG, []int32) {
	const (
		a = iota
		b
		c
		d
		e
		f
		g
		h
		i
	)
	dag := NewDAG(9)
	for v, l := range []string{"a", "b", "c", "d", "e", "f", "g", "h", "i"} {
		dag.SetLabel(v, l)
	}
	tree := [][2]int{{a, b}, {b, c}, {b, d}, {b, e}, {c, f}, {d, g}, {g, h}, {g, i}}
	nonTree := [][2]int{{a, c}, {c, g}, {e, g}, {f, h}}
	for _, e := range tree {
		dag.MustEdge(e[0], e[1])
	}
	for _, e := range nonTree {
		dag.MustEdge(e[0], e[1])
	}
	parents := []int32{-1, a, b, b, b, c, d, g, g}
	return dag, parents
}

// TestFigure2 reproduces the paper's Figure 2 worked example end to end:
// topological sort a<b<...<i, tree intervals (second column of Figure
// 2(d)), final merged interval sets (fourth column) and uncovered
// levels.
func TestFigure2(t *testing.T) {
	dag, parents := figure2DAG()
	dm, err := NewDomain(dag, WithTreeParents(parents))
	if err != nil {
		t.Fatal(err)
	}

	// Topological sort: a<b<c<...<i (Figure 2(c)). Kahn with min-id
	// tie-break yields exactly the alphabetical order here.
	for v := 0; v < 9; v++ {
		if dm.Ord(int32(v)) != int32(v) {
			t.Fatalf("ord(%s) = %d, want %d", dag.Label(v), dm.Ord(int32(v)), v)
		}
	}

	// Tree intervals, Figure 2(d) second column.
	wantTree := []Interval{
		{1, 9}, // a
		{1, 8}, // b
		{1, 2}, // c
		{3, 6}, // d
		{7, 7}, // e
		{1, 1}, // f
		{3, 5}, // g
		{3, 3}, // h
		{4, 4}, // i
	}
	for v, want := range wantTree {
		if got := (Interval{dm.minpost[v], dm.post[v]}); got != want {
			t.Errorf("tree interval of %s = %v, want %v", dag.Label(v), got, want)
		}
	}

	// Final merged sets, Figure 2(d) fourth column.
	wantFinal := []IntervalSet{
		{{1, 9}},         // a
		{{1, 8}},         // b
		{{1, 5}},         // c: [1,2]+[3,3]+[3,5] coalesce
		{{3, 6}},         // d
		{{3, 5}, {7, 7}}, // e
		{{1, 1}, {3, 3}}, // f
		{{3, 5}},         // g
		{{3, 3}},         // h
		{{4, 4}},         // i
	}
	for v, want := range wantFinal {
		if got := dm.Intervals(int32(v)); !got.Equal(want) {
			t.Errorf("final intervals of %s = %v, want %v", dag.Label(v), got, want)
		}
	}

	// Uncovered levels (small numbers in Figure 2(a)): g's level is 2
	// via the path a,c,g whose two edges are both non-tree.
	wantLevel := []int32{0, 0, 1, 0, 0, 1, 2, 2, 2}
	for v, want := range wantLevel {
		if got := dm.Level(int32(v)); got != want {
			t.Errorf("level(%s) = %d, want %d", dag.Label(v), got, want)
		}
	}
	if dm.MaxLevel() != 2 {
		t.Errorf("MaxLevel() = %d, want 2", dm.MaxLevel())
	}

	// Spot checks from the text: f is t-preferred over h (via the
	// propagated [3,3]); c and d are incomparable although the
	// topological sort places c before d.
	const cVal, dVal, fVal, hVal = 2, 3, 5, 7
	if !dm.TPrefers(fVal, hVal) {
		t.Error("f should be t-preferred over h")
	}
	if dm.TPrefers(cVal, dVal) || dm.TPrefers(dVal, cVal) {
		t.Error("c and d should be incomparable")
	}
}

func TestFigure2MDominanceIsInexact(t *testing.T) {
	dag, parents := figure2DAG()
	dm := MustDomain(dag, WithTreeParents(parents))
	// f(=5) reaches h(=7) only through the non-tree edge f→h, so the
	// single-interval m-mapping misses it: f's tree interval [1,1] does
	// not contain h's [3,3]. This is precisely the false-miss that
	// forces the baselines to cross-examine.
	if dm.MDominatesValue(5, 7) {
		t.Error("m-mapping should NOT capture f→h (non-tree edge)")
	}
	if !dm.TPrefers(5, 7) {
		t.Error("t-preference must capture f→h")
	}
	// Tree-path preferences are captured by both.
	if !dm.MDominatesValue(0, 3) || !dm.TPrefers(0, 3) {
		t.Error("a→d follows tree edges and must be captured by both relations")
	}
}

func TestDefaultSpanningTreeIsValid(t *testing.T) {
	dag, _ := figure2DAG()
	dm := MustDomain(dag) // default parent policy, no explicit parents
	r := NewReachability(dag)
	for x := int32(0); x < 9; x++ {
		for y := int32(0); y < 9; y++ {
			if x == y {
				continue
			}
			if dm.TPrefers(x, y) != r.Reaches(x, y) {
				t.Fatalf("default tree: TPrefers(%d,%d)=%v, reach=%v",
					x, y, dm.TPrefers(x, y), r.Reaches(x, y))
			}
		}
	}
}

func TestDomainChain(t *testing.T) {
	// Total order 0→1→2→3: every earlier value preferred to every later.
	dag := NewDAG(4)
	for v := 0; v < 3; v++ {
		dag.MustEdge(v, v+1)
	}
	dm := MustDomain(dag)
	for x := int32(0); x < 4; x++ {
		for y := int32(0); y < 4; y++ {
			want := x < y
			if got := dm.TPrefers(x, y); got != want {
				t.Errorf("chain TPrefers(%d,%d) = %v, want %v", x, y, got, want)
			}
		}
	}
	if dm.MaxLevel() != 0 {
		t.Errorf("chain has no non-tree edges; MaxLevel = %d", dm.MaxLevel())
	}
}

func TestDomainAntichain(t *testing.T) {
	dag := NewDAG(5) // no edges: all incomparable
	dm := MustDomain(dag)
	for x := int32(0); x < 5; x++ {
		for y := int32(0); y < 5; y++ {
			if dm.TPrefers(x, y) {
				t.Errorf("antichain: TPrefers(%d,%d) should be false", x, y)
			}
		}
	}
}

func TestDomainDiamond(t *testing.T) {
	// 0→1, 0→2, 1→3, 2→3. One of 1→3 / 2→3 must be non-tree.
	dag := NewDAG(4)
	dag.MustEdge(0, 1)
	dag.MustEdge(0, 2)
	dag.MustEdge(1, 3)
	dag.MustEdge(2, 3)
	dm := MustDomain(dag)
	r := NewReachability(dag)
	for x := int32(0); x < 4; x++ {
		for y := int32(0); y < 4; y++ {
			if x != y && dm.TPrefers(x, y) != r.Reaches(x, y) {
				t.Errorf("diamond TPrefers(%d,%d) mismatch", x, y)
			}
		}
	}
	if dm.MaxLevel() != 1 {
		t.Errorf("diamond MaxLevel = %d, want 1", dm.MaxLevel())
	}
	if dm.Level(3) != 1 {
		t.Errorf("level(3) = %d, want 1", dm.Level(3))
	}
}

func TestTopologicalOrderRespectsEdges(t *testing.T) {
	dag, _ := figure2DAG()
	order, err := dag.TopologicalOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int, 9)
	for i, v := range order {
		pos[v] = i
	}
	for v := 0; v < 9; v++ {
		for _, w := range dag.Out(v) {
			if pos[v] >= pos[int(w)] {
				t.Errorf("edge %d→%d violates topological order", v, w)
			}
		}
	}
}

func TestCycleDetection(t *testing.T) {
	dag := NewDAG(3)
	dag.MustEdge(0, 1)
	dag.MustEdge(1, 2)
	dag.MustEdge(2, 0)
	if _, err := dag.TopologicalOrder(); err != ErrCycle {
		t.Fatalf("want ErrCycle, got %v", err)
	}
	if _, err := NewDomain(dag); err == nil {
		t.Fatal("NewDomain must reject cyclic graphs")
	}
}

func TestDAGEdgeValidation(t *testing.T) {
	dag := NewDAG(2)
	if err := dag.AddEdge(0, 0); err == nil {
		t.Error("self-loop must be rejected")
	}
	if err := dag.AddEdge(0, 5); err == nil {
		t.Error("out-of-range edge must be rejected")
	}
	if err := dag.AddEdge(-1, 0); err == nil {
		t.Error("negative edge must be rejected")
	}
	dag.MustEdge(0, 1)
	dag.MustEdge(0, 1) // duplicate ignored
	if dag.Edges() != 1 {
		t.Errorf("Edges() = %d, want 1 after dedup", dag.Edges())
	}
}

func TestDAGLabels(t *testing.T) {
	dag := NewDAG(2)
	dag.SetLabel(0, "x")
	if dag.Label(0) != "x" || dag.Label(1) != "1" {
		t.Error("label lookup broken")
	}
	if dag.LabelIndex("x") != 0 || dag.LabelIndex("zzz") != -1 {
		t.Error("LabelIndex broken")
	}
}

func TestWithTreeParentsValidation(t *testing.T) {
	dag := NewDAG(3)
	dag.MustEdge(0, 1)
	dag.MustEdge(1, 2)
	if _, err := NewDomain(dag, WithTreeParents([]int32{-1, 0})); err == nil {
		t.Error("wrong-length parents must be rejected")
	}
	if _, err := NewDomain(dag, WithTreeParents([]int32{-1, 0, 0})); err == nil {
		t.Error("non-in-neighbour parent must be rejected")
	}
	if _, err := NewDomain(dag, WithTreeParents([]int32{-1, 0, 1})); err != nil {
		t.Errorf("valid parents rejected: %v", err)
	}
}

// randomDAG builds a random DAG over n nodes: a random permutation fixes
// the topological order; each forward pair becomes an edge with
// probability p.
func randomDAG(rng *rand.Rand, n int, p float64) *DAG {
	dag := NewDAG(n)
	perm := rng.Perm(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				dag.MustEdge(perm[i], perm[j])
			}
		}
	}
	return dag
}

// TestTPreferenceEqualsReachability is the package's central property:
// after propagation, t-preference is exactly DAG reachability, for both
// the stabbing and the paper-literal containment forms, under the
// default spanning-tree policy.
func TestTPreferenceEqualsReachability(t *testing.T) {
	prop := func(seed int64, nRaw, pRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%24) + 2
		p := float64(pRaw%90)/100 + 0.05
		dag := randomDAG(rng, n, p)
		dm := MustDomain(dag)
		r := NewReachability(dag)
		for x := int32(0); x < int32(n); x++ {
			for y := int32(0); y < int32(n); y++ {
				if x == y {
					if dm.TPrefers(x, y) || dm.TPrefersContainment(x, y) {
						return false
					}
					continue
				}
				want := r.Reaches(x, y)
				if dm.TPrefers(x, y) != want {
					return false
				}
				if dm.TPrefersContainment(x, y) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestMDominanceImpliesReachability: the m-mapping is sound (never
// claims a false preference) though incomplete.
func TestMDominanceImpliesReachability(t *testing.T) {
	prop := func(seed int64, nRaw, pRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%24) + 2
		p := float64(pRaw%90)/100 + 0.05
		dag := randomDAG(rng, n, p)
		dm := MustDomain(dag)
		r := NewReachability(dag)
		for x := int32(0); x < int32(n); x++ {
			for y := int32(0); y < int32(n); y++ {
				if x != y && dm.MDominatesValue(x, y) && !r.Reaches(x, y) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestLevelsMonotone: x→y implies level(x) ≤ level(y); this is what
// makes the SDC+ strata sound (no point dominated from a higher
// stratum).
func TestLevelsMonotone(t *testing.T) {
	prop := func(seed int64, nRaw, pRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%24) + 2
		p := float64(pRaw%90)/100 + 0.05
		dag := randomDAG(rng, n, p)
		dm := MustDomain(dag)
		for v := 0; v < n; v++ {
			for _, w := range dag.Out(v) {
				if dm.Level(int32(v)) > dm.Level(w) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestOrdinalsRespectPreference: topological ordinals are a monotone
// embedding — x preferred to y implies ord(x) < ord(y). This is the
// precedence property sTSS builds on.
func TestOrdinalsRespectPreference(t *testing.T) {
	prop := func(seed int64, nRaw, pRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%24) + 2
		p := float64(pRaw%90)/100 + 0.05
		dag := randomDAG(rng, n, p)
		dm := MustDomain(dag)
		r := NewReachability(dag)
		for x := int32(0); x < int32(n); x++ {
			for y := int32(0); y < int32(n); y++ {
				if r.Reaches(x, y) && dm.Ord(x) >= dm.Ord(y) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestOrdValueRoundTrip: Ord and ValueAt are inverse bijections.
func TestOrdValueRoundTrip(t *testing.T) {
	dag, _ := figure2DAG()
	dm := MustDomain(dag)
	seen := map[int32]bool{}
	for v := int32(0); v < 9; v++ {
		o := dm.Ord(v)
		if dm.ValueAt(o) != v {
			t.Fatalf("ValueAt(Ord(%d)) = %d", v, dm.ValueAt(o))
		}
		if seen[o] {
			t.Fatalf("duplicate ordinal %d", o)
		}
		seen[o] = true
	}
}

func TestMCoords(t *testing.T) {
	dag, parents := figure2DAG()
	dm := MustDomain(dag, WithTreeParents(parents))
	// a has tree interval [1,9] in a 9-value domain → transformed (0,0):
	// the most preferable corner, consistent with "low I1, high I2".
	i1, i2 := dm.MCoords(0)
	if i1 != 0 || i2 != 0 {
		t.Errorf("MCoords(a) = (%d,%d), want (0,0)", i1, i2)
	}
	// h: [3,3] → (2, 6).
	i1, i2 = dm.MCoords(7)
	if i1 != 2 || i2 != 6 {
		t.Errorf("MCoords(h) = (%d,%d), want (2,6)", i1, i2)
	}
}

func TestDomainAccessors(t *testing.T) {
	dag, parents := figure2DAG()
	dm := MustDomain(dag, WithTreeParents(parents))
	if dm.DAG() != dag {
		t.Error("DAG() must return the underlying graph")
	}
	if err := dag.Validate(); err != nil {
		t.Errorf("acyclic DAG failed Validate: %v", err)
	}
	// Leq: reflexive and consistent with TPrefers.
	if !dm.Leq(3, 3) {
		t.Error("Leq must be reflexive")
	}
	if !dm.Leq(0, 8) || dm.Leq(8, 0) {
		t.Error("Leq must follow preference direction")
	}
	// PostRun: e (value 4) has runs [3,5] and [7,7]; its post 7 lives in
	// the second.
	if got := dm.PostRun(4); got != (Interval{7, 7}) {
		t.Errorf("PostRun(e) = %v, want [7,7]", got)
	}
	// c (value 2) merged to a single run [1,5] containing post 2.
	if got := dm.PostRun(2); got != (Interval{1, 5}) {
		t.Errorf("PostRun(c) = %v, want [1,5]", got)
	}
}

func TestMustEdgePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustEdge on a self-loop must panic")
		}
	}()
	NewDAG(2).MustEdge(1, 1)
}

func TestDAGClone(t *testing.T) {
	dag, _ := figure2DAG()
	c := dag.Clone()
	c.MustEdge(8, 7) // i→h, new edge in the clone only
	if dag.Edges() == c.Edges() {
		t.Error("clone must not share edge storage")
	}
	if c.Label(0) != "a" {
		t.Error("clone must copy labels")
	}
}
