package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/poset"
	"repro/internal/rtree"
)

// randomPODomainDAG builds a small random DAG for property tests.
func randomPODomainDAG(rng *rand.Rand, n int, p float64) *poset.DAG {
	dag := poset.NewDAG(n)
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

// randomDataset builds a small random dataset. Coordinates are drawn
// from a tiny range so ties and exact duplicates occur routinely —
// the hardest case for strictness handling.
func randomDataset(rng *rand.Rand, n, nTO, nPO int) *Dataset {
	ds := &Dataset{}
	for d := 0; d < nPO; d++ {
		size := rng.Intn(8) + 2
		ds.Domains = append(ds.Domains, poset.MustDomain(
			randomPODomainDAG(rng, size, rng.Float64()*0.6+0.1)))
	}
	for i := 0; i < n; i++ {
		p := Point{ID: int32(i)}
		for d := 0; d < nTO; d++ {
			p.TO = append(p.TO, int32(rng.Intn(6)))
		}
		for d := 0; d < nPO; d++ {
			p.PO = append(p.PO, int32(rng.Intn(ds.Domains[d].Size())))
		}
		ds.Pts = append(ds.Pts, p)
	}
	return ds
}

// TestStaticAlgorithmsMatchNaive is the central correctness property:
// every algorithm, in every configuration, returns exactly the naive
// skyline (as an ID multiset — duplicates of skyline points are skyline
// points) on random data with heavy ties.
func TestStaticAlgorithmsMatchNaive(t *testing.T) {
	prop := func(seed int64, nRaw uint16, toRaw, poRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%60) + 1
		nTO := int(toRaw%3) + 1
		nPO := int(poRaw % 3) // 0..2: includes the pure-TO case
		ds := randomDataset(rng, n, nTO, nPO)
		if err := ds.Validate(); err != nil {
			t.Logf("invalid dataset: %v", err)
			return false
		}
		want := ds.NaiveSkyline()
		for name, res := range allStaticAlgorithms(ds) {
			if !sameIDSet(res.SkylineIDs, want) {
				t.Logf("seed=%d n=%d TO=%d PO=%d: %s = %v, want %v",
					seed, n, nTO, nPO, name, res.SkylineIDs, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestDynamicAlgorithmsMatchNaive: dTSS (all configurations) and the
// dynamic SDC+ baseline agree with the naive skyline under random query
// partial orders, across several sequential queries on one DynamicDB.
func TestDynamicAlgorithmsMatchNaive(t *testing.T) {
	prop := func(seed int64, nRaw uint16, toRaw, poRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%50) + 1
		nTO := int(toRaw%3) + 1
		nPO := int(poRaw%2) + 1
		ds := randomDataset(rng, n, nTO, nPO)
		db := NewDynamicDB(ds, Options{})
		for q := 0; q < 3; q++ {
			domains := make([]*poset.Domain, nPO)
			for d := 0; d < nPO; d++ {
				domains[d] = poset.MustDomain(randomPODomainDAG(
					rng, ds.Domains[d].Size(), rng.Float64()*0.6))
			}
			want := NaiveSkylineUnder(domains, ds.Pts)
			for _, opt := range []Options{
				{}, {UseMemTree: true}, {PrecomputedLocal: true},
				{UseMemTree: true, PrecomputedLocal: true, StabOnly: true},
			} {
				res, err := db.QueryTSS(domains, opt)
				if err != nil {
					t.Log(err)
					return false
				}
				if !sameIDSet(res.SkylineIDs, want) {
					t.Logf("seed=%d q=%d opt=%+v: dTSS = %v, want %v",
						seed, q, opt, res.SkylineIDs, want)
					return false
				}
			}
			res, err := DynamicSDCPlus(ds, domains, Options{})
			if err != nil {
				t.Log(err)
				return false
			}
			if !sameIDSet(res.SkylineIDs, want) {
				t.Logf("seed=%d q=%d: dynSDC+ = %v, want %v", seed, q, res.SkylineIDs, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSTSSPrecedence: sTSS emissions appear in non-decreasing mindist
// order in the (TO…, ATO…) space — the visiting order that guarantees
// precedence — and are never revoked (each ID emitted exactly once, and
// every emitted ID is in the final skyline).
func TestSTSSPrecedence(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ds := randomDataset(rng, 50, 2, 1)
		res := STSS(ds, Options{})
		byID := map[int32]*Point{}
		for i := range ds.Pts {
			byID[ds.Pts[i].ID] = &ds.Pts[i]
		}
		last := int64(-1)
		seen := map[int32]bool{}
		for _, id := range res.SkylineIDs {
			if seen[id] {
				return false // revoked/duplicated emission
			}
			seen[id] = true
			var mind int64
			for _, c := range stssCoords(ds.Domains, byID[id]) {
				mind += int64(c)
			}
			if mind < last {
				return false
			}
			last = mind
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestSTSSOptimalProgressiveness: sTSS emits each result the moment it
// is examined, so its k-th emission can never happen after BBS+ has
// emitted anything (BBS+ outputs everything at the very end). We check
// the structural form: sTSS emission IO stamps are non-decreasing and
// strictly before the final IO count when a prune happened later.
func TestSTSSOptimalProgressiveness(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ds := randomDataset(rng, 200, 2, 1)
	res := STSS(ds, Options{})
	if len(res.Metrics.Emissions) < 2 {
		t.Skip("degenerate skyline")
	}
	var last int64 = -1
	for _, e := range res.Metrics.Emissions {
		if e.IOs < last {
			t.Fatal("emission IO stamps must be non-decreasing")
		}
		last = e.IOs
	}
	// First emission must not wait for the full traversal.
	if res.Metrics.Emissions[0].IOs >= res.Metrics.ReadIOs {
		t.Error("first sTSS emission should precede traversal completion")
	}
	// BBS+ (not progressive): all emissions stamp at the end.
	resB := BBSPlus(ds, Options{})
	for _, e := range resB.Metrics.Emissions {
		if e.IOs != resB.Metrics.ReadIOs+resB.Metrics.WriteIOs {
			t.Error("BBS+ emissions must all carry the final IO stamp")
		}
	}
}

// TestSDCPlusBurstEmissions: SDC+ emits per stratum — the number of
// distinct emission IO stamps is at most the number of strata.
func TestSDCPlusBurstEmissions(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ds := randomDataset(rng, 300, 2, 2)
	res := SDCPlus(ds, Options{})
	maxLv := int32(0)
	for _, dm := range ds.Domains {
		if dm.MaxLevel() > maxLv {
			maxLv = dm.MaxLevel()
		}
	}
	stamps := map[int64]bool{}
	for _, e := range res.Metrics.Emissions {
		stamps[e.IOs] = true
	}
	if int32(len(stamps)) > maxLv+1 {
		t.Errorf("SDC+ produced %d emission bursts, max strata %d", len(stamps), maxLv+1)
	}
}

// TestDuplicatesAllReported: exact duplicates of a skyline point are
// each reported, in every algorithm.
func TestDuplicatesAllReported(t *testing.T) {
	dag := poset.NewDAG(3)
	dag.MustEdge(0, 1)
	dm := poset.MustDomain(dag)
	ds := &Dataset{Domains: []*poset.Domain{dm}}
	// Three identical best points, one dominated, one incomparable.
	for i := 0; i < 3; i++ {
		ds.Pts = append(ds.Pts, Point{ID: int32(i), TO: []int32{1, 1}, PO: []int32{0}})
	}
	ds.Pts = append(ds.Pts, Point{ID: 3, TO: []int32{2, 2}, PO: []int32{1}}) // dominated by 0..2
	ds.Pts = append(ds.Pts, Point{ID: 4, TO: []int32{1, 1}, PO: []int32{2}}) // incomparable value
	want := []int32{0, 1, 2, 4}
	if got := ds.NaiveSkyline(); !sameIDSet(got, want) {
		t.Fatalf("naive = %v, want %v", got, want)
	}
	for name, res := range allStaticAlgorithms(ds) {
		if !sameIDSet(res.SkylineIDs, want) {
			t.Errorf("%s = %v, want %v (duplicates must all be reported)", name, res.SkylineIDs, want)
		}
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	empty := &Dataset{}
	for name, res := range map[string]*Result{
		"BNL": BNL(empty, Options{}), "SFS": SFS(empty, Options{}),
		"sTSS": STSS(empty, Options{}), "BBS+": BBSPlus(empty, Options{}),
		"SDC": SDC(empty, Options{}), "SDC+": SDCPlus(empty, Options{}),
	} {
		if len(res.SkylineIDs) != 0 {
			t.Errorf("%s on empty dataset = %v", name, res.SkylineIDs)
		}
	}
	one := &Dataset{Pts: []Point{{ID: 7, TO: []int32{3}}}}
	for name, res := range map[string]*Result{
		"BNL": BNL(one, Options{}), "SFS": SFS(one, Options{}), "sTSS": STSS(one, Options{}),
		"BBS+": BBSPlus(one, Options{}), "SDC+": SDCPlus(one, Options{}),
	} {
		if len(res.SkylineIDs) != 1 || res.SkylineIDs[0] != 7 {
			t.Errorf("%s on singleton = %v", name, res.SkylineIDs)
		}
	}
}

func TestValidate(t *testing.T) {
	dag := poset.NewDAG(2)
	dm := poset.MustDomain(dag)
	bad := &Dataset{
		Pts:     []Point{{ID: 0, TO: []int32{1}, PO: []int32{5}}},
		Domains: []*poset.Domain{dm},
	}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-domain PO value must fail validation")
	}
	bad2 := &Dataset{
		Pts: []Point{
			{ID: 0, TO: []int32{1}, PO: []int32{0}},
			{ID: 1, TO: []int32{1, 2}, PO: []int32{0}},
		},
		Domains: []*poset.Domain{dm},
	}
	if err := bad2.Validate(); err == nil {
		t.Error("ragged dimensionality must fail validation")
	}
	if err := (&Dataset{}).Validate(); err != nil {
		t.Errorf("empty dataset should validate: %v", err)
	}
	mismatched := &Dataset{Pts: []Point{{ID: 0, TO: []int32{1}, PO: []int32{0}}}}
	if err := mismatched.Validate(); err == nil {
		t.Error("PO attribute without domain must fail validation")
	}
}

// TestDominatesUnderSemantics: incomparable PO values block dominance
// (the reading Table I requires), and strictness is required.
func TestDominatesUnderSemantics(t *testing.T) {
	dag := poset.NewDAG(3)
	dag.MustEdge(0, 1) // 0 preferred to 1; 2 incomparable
	dm := poset.MustDomain(dag)
	domains := []*poset.Domain{dm}
	mk := func(to int32, v int32) *Point { return &Point{TO: []int32{to}, PO: []int32{v}} }
	if !DominatesUnder(domains, mk(1, 0), mk(1, 1)) {
		t.Error("preferred PO value with equal TO must dominate")
	}
	if DominatesUnder(domains, mk(1, 0), mk(1, 0)) {
		t.Error("identical points must not dominate each other")
	}
	if DominatesUnder(domains, mk(0, 0), mk(1, 2)) {
		t.Error("incomparable PO values must block dominance even with better TO")
	}
	if DominatesUnder(domains, mk(1, 1), mk(2, 0)) {
		t.Error("worse PO value must block dominance")
	}
	if !DominatesUnder(domains, mk(0, 2), mk(1, 2)) {
		t.Error("equal PO value with better TO must dominate")
	}
}

// TestMetricsAccounting sanity-checks the cost model plumbing.
func TestMetricsAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ds := randomDataset(rng, 400, 2, 1)
	res := STSS(ds, Options{})
	if res.Metrics.BuildWriteIOs == 0 {
		t.Error("index build must charge page writes")
	}
	if res.Metrics.ReadIOs == 0 {
		t.Error("query must charge page reads")
	}
	if res.Metrics.DomChecks == 0 {
		t.Error("dominance checks must be counted")
	}
	if got := res.Metrics.TotalTime(DefaultIOCost); got <= res.Metrics.CPU {
		t.Error("total time must include the IO charge")
	}
	if s := res.Metrics.CPUShare(DefaultIOCost); s <= 0 || s >= 1 {
		t.Errorf("CPU share = %f, want within (0,1)", s)
	}
	e := Emission{IOs: 10, CPU: 0}
	if e.Time(DefaultIOCost) != 10*DefaultIOCost {
		t.Error("Emission.Time broken")
	}
}

// TestCheckerParity: the list checker and the memtree checker give
// identical answers on identical query sequences (differential test).
func TestCheckerParity(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nPO := rng.Intn(2) + 1
		ds := randomDataset(rng, 30, 2, nPO)
		list := newListChecker(ds.Domains, false)
		mem := newMemChecker(ds.Domains, 2, false)
		for i := range ds.Pts {
			p := &ds.Pts[i]
			dl := list.dominatedPoint(p.TO, p.PO)
			dm := mem.dominatedPoint(p.TO, p.PO)
			if dl != dm {
				t.Logf("seed=%d point %d: list=%v mem=%v", seed, p.ID, dl, dm)
				return false
			}
			if !dl {
				list.add(p)
				mem.add(p)
			}
			// Random box probes.
			ordLo := make([]int32, nPO)
			ordHi := make([]int32, nPO)
			for d := 0; d < nPO; d++ {
				n := int32(ds.Domains[d].Size())
				a, b := rng.Int31n(n), rng.Int31n(n)
				if a > b {
					a, b = b, a
				}
				ordLo[d], ordHi[d] = a, b
			}
			toLo := []int32{int32(rng.Intn(6)), int32(rng.Intn(6))}
			bl := list.dominatedBox(toLo, ordLo, ordHi)
			bm := mem.dominatedBox(toLo, ordLo, ordHi)
			if bl != bm {
				t.Logf("seed=%d box: list=%v mem=%v", seed, bl, bm)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestBoxCheckSound: dominatedBox true implies every point inside the
// box is strictly dominated by an accepted point (soundness of the
// joint-coverage prune).
func TestBoxCheckSound(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ds := randomDataset(rng, 25, 1, 1)
		dm := ds.Domains[0]
		checker := newListChecker(ds.Domains, false)
		var accepted []*Point
		for i := range ds.Pts {
			p := &ds.Pts[i]
			if !checker.dominatedPoint(p.TO, p.PO) {
				checker.add(p)
				accepted = append(accepted, p)
			}
		}
		n := int32(dm.Size())
		for trial := 0; trial < 20; trial++ {
			a, b := rng.Int31n(n), rng.Int31n(n)
			if a > b {
				a, b = b, a
			}
			toLo := []int32{int32(rng.Intn(6))}
			if !checker.dominatedBox(toLo, []int32{a}, []int32{b}) {
				continue
			}
			// Every (toLo+δ, value-in-range) must be dominated.
			for o := a; o <= b; o++ {
				v := dm.ValueAt(o)
				probe := &Point{TO: toLo, PO: []int32{v}}
				dominated := false
				for _, s := range accepted {
					if DominatesUnder(ds.Domains, s, probe) {
						dominated = true
						break
					}
				}
				if !dominated {
					t.Logf("seed=%d: box prune unsound for value %d", seed, v)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSortByKey(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200) + 1
		key := make([]int64, n)
		order := make([]int32, n)
		for i := range key {
			key[i] = int64(rng.Intn(20))
			order[i] = int32(i)
		}
		sortByKey(order, key)
		for i := 1; i < n; i++ {
			a, b := order[i-1], order[i]
			if key[a] > key[b] || (key[a] == key[b] && a > b) {
				t.Fatal("sortByKey not sorted/stable")
			}
		}
	}
}

// TestHeapOrdering: the BBS heap pops by mindist, points before nodes,
// then insertion order.
func TestHeapOrdering(t *testing.T) {
	var h bbsHeap
	mk := func(lo []int32) rtree.Entry { return rtree.Entry{Lo: lo, Hi: lo} }
	h.push(mk([]int32{5}))
	h.push(mk([]int32{3}))
	h.push(mk([]int32{4}))
	h.push(mk([]int32{3}))
	got := []int64{}
	for h.len() > 0 {
		got = append(got, h.pop().mind)
	}
	want := []int64{3, 3, 4, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("heap order %v, want %v", got, want)
		}
	}
}
