package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/poset"
)

// transformedDataset re-centres ds on the query point q under the
// query's domains: the rows a planned ideal-point query hands to its
// algorithm.
func transformedDataset(ds *Dataset, q []int32, domains []*poset.Domain) *Dataset {
	out := &Dataset{Domains: domains, Pts: make([]Point, len(ds.Pts))}
	for i, p := range ds.Pts {
		out.Pts[i] = Point{ID: p.ID, TO: absDiff(p.TO, q), PO: p.PO}
	}
	return out
}

// TestFullyDynamicMatchesNaive: every PO-capable algorithm
// over the |t − q| transform agrees with the brute-force oracle, for
// random query points and partial orders, on the kernel and the scalar
// reference path.
func TestFullyDynamicMatchesNaive(t *testing.T) {
	prop := func(seed int64, nRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%50) + 1
		nTO := rng.Intn(2) + 1
		nPO := rng.Intn(2) + 1
		ds := randomDataset(rng, n, nTO, nPO)
		for trial := 0; trial < 3; trial++ {
			q := make([]int32, nTO)
			for d := range q {
				q[d] = int32(rng.Intn(8))
			}
			domains := make([]*poset.Domain, nPO)
			for d := 0; d < nPO; d++ {
				domains[d] = poset.MustDomain(randomPODomainDAG(
					rng, ds.Domains[d].Size(), rng.Float64()*0.6))
			}
			want := FullyDynamicNaive(ds, q, domains)
			tds := transformedDataset(ds, q, domains)
			for _, algo := range append(Algorithms(), Baselines()...) {
				if !algo.Capabilities().POCapable {
					continue
				}
				for _, opt := range []Options{{}, {NoKernel: true}} {
					res, err := algo.Run(tds, opt)
					if err != nil {
						t.Log(err)
						return false
					}
					if !sameIDSet(res.SkylineIDs, want) {
						t.Logf("seed=%d q=%v %s opt=%+v: got %v, want %v",
							seed, q, algo.Name(), opt, res.SkylineIDs, want)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestFullyDynamicCentredOnPoint: a query point sitting exactly on a
// tuple makes that tuple (distance zero everywhere) dominate everything
// with a worse PO value — and itself always be in the skyline.
func TestFullyDynamicCentredOnPoint(t *testing.T) {
	ds := figure5Dataset()
	q := []int32{3, 4} // exactly p3 (and p8's coordinates)
	dag := poset.NewDAG(3)
	dag.MustEdge(0, 1) // a preferred to b
	dag.MustEdge(0, 2) // a preferred to c
	dom := poset.MustDomain(dag)
	res := SFS(transformedDataset(ds, q, []*poset.Domain{dom}), Options{})
	want := FullyDynamicNaive(ds, q, []*poset.Domain{dom})
	if !sameIDSet(res.SkylineIDs, want) {
		t.Fatalf("got %v, want %v", res.SkylineIDs, want)
	}
	// p3 = (3,4,a) is at distance (0,0) with the best PO value: it must
	// be in the skyline (and in fact dominates every non-a tuple).
	found := false
	for _, id := range res.SkylineIDs {
		if id == 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("p3 must be in the dynamic skyline centred on it; got %v", res.SkylineIDs)
	}
}

func TestQueryCache(t *testing.T) {
	ds := figure5Dataset()
	db := NewDynamicDB(ds, Options{})
	db.EnableCache(2)

	mk := func(edges ...[2]int) *poset.Domain {
		dag := poset.NewDAG(3)
		for _, e := range edges {
			dag.MustEdge(e[0], e[1])
		}
		return poset.MustDomain(dag)
	}

	// First query: miss.
	r1, err := db.QueryTSS([]*poset.Domain{mk([2]int{1, 2})}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if h, m := db.CacheStats(); h != 0 || m != 1 {
		t.Fatalf("stats after miss: hits=%d misses=%d", h, m)
	}
	// Same partial order, freshly built: hit, zero IO, same skyline.
	r2, err := db.QueryTSS([]*poset.Domain{mk([2]int{1, 2})}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if h, _ := db.CacheStats(); h != 1 {
		t.Fatal("expected a cache hit for an identical partial order")
	}
	if !sameIDSet(r1.SkylineIDs, r2.SkylineIDs) {
		t.Fatal("cached result differs")
	}
	if r2.Metrics.ReadIOs != 0 || r2.Metrics.WriteIOs != 0 {
		t.Error("cache hit must not charge IOs")
	}

	// A different order misses and computes correctly.
	r3, err := db.QueryTSS([]*poset.Domain{mk([2]int{0, 1}, [2]int{2, 1})}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{1, 2, 7, 8, 10}
	if !sameIDSet(r3.SkylineIDs, want) {
		t.Fatalf("post-cache query = %v, want %v", r3.SkylineIDs, want)
	}

	// Capacity-2 FIFO: a third distinct signature evicts the first.
	if _, err := db.QueryTSS([]*poset.Domain{mk()}, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.QueryTSS([]*poset.Domain{mk([2]int{1, 2})}, Options{}); err != nil {
		t.Fatal(err)
	}
	if h, m := db.CacheStats(); h != 1 || m != 4 {
		t.Errorf("after eviction: hits=%d misses=%d, want 1/4", h, m)
	}
}

// TestQueryCacheMutationSafety: mutating a served result must not
// corrupt the cache.
func TestQueryCacheMutationSafety(t *testing.T) {
	ds := figure5Dataset()
	db := NewDynamicDB(ds, Options{})
	db.EnableCache(4)
	dom := func() *poset.Domain {
		dag := poset.NewDAG(3)
		dag.MustEdge(1, 2)
		return poset.MustDomain(dag)
	}
	r1, _ := db.QueryTSS([]*poset.Domain{dom()}, Options{})
	for i := range r1.SkylineIDs {
		r1.SkylineIDs[i] = -1 // caller scribbles over the result
	}
	r2, _ := db.QueryTSS([]*poset.Domain{dom()}, Options{})
	for _, id := range r2.SkylineIDs {
		if id == -1 {
			t.Fatal("cache returned aliased storage")
		}
	}
}

// TestPackedRoots: packing group roots into sequential pages preserves
// the result and, for domains with many groups, cuts the per-query IO
// substantially (the §VI-C remedy).
func TestPackedRoots(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	// Many groups: two PO attributes with sizeable domains.
	ds := &Dataset{}
	for d := 0; d < 2; d++ {
		ds.Domains = append(ds.Domains,
			poset.MustDomain(randomPODomainDAG(rng, 9, 0.3)))
	}
	for i := 0; i < 800; i++ {
		ds.Pts = append(ds.Pts, Point{
			ID: int32(i),
			TO: []int32{int32(rng.Intn(50)), int32(rng.Intn(50))},
			PO: []int32{int32(rng.Intn(9)), int32(rng.Intn(9))},
		})
	}
	db := NewDynamicDB(ds, Options{})
	domains := []*poset.Domain{
		poset.MustDomain(randomPODomainDAG(rng, 9, 0.3)),
		poset.MustDomain(randomPODomainDAG(rng, 9, 0.3)),
	}
	plain, err := db.QueryTSS(domains, Options{})
	if err != nil {
		t.Fatal(err)
	}
	packed, err := db.QueryTSS(domains, Options{PackedRoots: true})
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDSet(plain.SkylineIDs, packed.SkylineIDs) {
		t.Fatal("packed roots must not change the result")
	}
	if packed.Metrics.ReadIOs >= plain.Metrics.ReadIOs {
		t.Errorf("packed reads %d, want fewer than %d", packed.Metrics.ReadIOs, plain.Metrics.ReadIOs)
	}
}

// TestBufferReducesIOs: with a buffer as large as the index, repeated
// traversal of shared upper levels is absorbed; the unbuffered run
// charges strictly more reads.
func TestBufferReducesIOs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ds := randomDataset(rng, 2000, 2, 1)
	plain := STSS(ds, Options{})
	buffered := STSS(ds, Options{BufferPages: 1 << 16})
	if !sameIDSet(plain.SkylineIDs, buffered.SkylineIDs) {
		t.Fatal("buffering must not change the result")
	}
	if buffered.Metrics.ReadIOs > plain.Metrics.ReadIOs {
		t.Errorf("buffered reads %d > unbuffered %d", buffered.Metrics.ReadIOs, plain.Metrics.ReadIOs)
	}
	// Dynamic path too.
	db := NewDynamicDB(ds, Options{})
	dom := []*poset.Domain{poset.MustDomain(randomPODomainDAG(rng, ds.Domains[0].Size(), 0.3))}
	rp, err := db.QueryTSS(dom, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := db.QueryTSS(dom, Options{BufferPages: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDSet(rp.SkylineIDs, rb.SkylineIDs) {
		t.Fatal("dynamic buffering must not change the result")
	}
	if rb.Metrics.ReadIOs > rp.Metrics.ReadIOs {
		t.Errorf("dynamic buffered reads %d > unbuffered %d", rb.Metrics.ReadIOs, rp.Metrics.ReadIOs)
	}
}
