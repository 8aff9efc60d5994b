package core

import (
	"math/rand"
	"testing"

	"repro/internal/poset"
)

// Steady-state allocation regression tests for the elimination hot
// paths. The kernel probe loop and the checkers' point tests must not
// allocate at all once warm; the box tests are allowed the small,
// by-design allocations of OrdRangeIntervals (MergeIntervals returns
// fresh storage, and the dyadic decomposition needs scratch when it has
// ≥ 2 pieces) but are pinned to a tight bound so regressions surface.

// allocDataset is a deterministic mixed TO/PO dataset for the alloc
// tests: small value ranges so ties, duplicates and real PO structure
// all occur.
func allocDataset(seed int64, n int) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := randomDataset(rng, n, 2, 2)
	for _, dm := range ds.Domains {
		dm.EnableDyadic()
	}
	return ds
}

// TestKernelProbeLoopAllocs: the colSet probe loop — compile candidate,
// dominator scan, eviction scan — the merge pass's per-shard probe and
// the ranking layer's DomScan collector are allocation-free in the
// steady state, on both the bitset-closure path and the interval
// fallback.
func TestKernelProbeLoopAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		budget int64
	}{
		{"closure", 0},
		{"interval-fallback", -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds := allocDataset(7, 600)
			k := newColSet(ds.Domains, 2, len(ds.Pts), tc.budget)
			for i := range ds.Pts {
				p := &ds.Pts[i]
				k.append(p.TO, p.PO, p.ID)
			}
			pr := k.newProbe()
			probeAll := func() {
				for i := range ds.Pts {
					p := &ds.Pts[i]
					k.begin(pr, p.TO, p.PO, true)
					_ = k.anyDominator(pr)
					k.evictDominatedBy(pr)
				}
			}
			probeAll() // warm-up: nothing left to grow after this
			if allocs := testing.AllocsPerRun(20, probeAll); allocs != 0 {
				t.Errorf("probe loop allocates %.1f objects per pass, want 0", allocs)
			}

			// The merge pass: candidates dealt to four shard tags, one set
			// per tag, each probed against the other tags' sets.
			cands := make([]mergeCand, len(ds.Pts))
			for i := range ds.Pts {
				cands[i] = mergeCand{p: &ds.Pts[i], shard: i % 4}
			}
			sets := tagSets(ds.Domains, 2, cands, tc.budget)
			mpr := sets[0].newProbe()
			mergeAll := func() {
				for _, mc := range cands {
					_ = mergeProbe(sets, mc, mpr)
				}
			}
			mergeAll()
			if allocs := testing.AllocsPerRun(20, mergeAll); allocs != 0 {
				t.Errorf("merge probe allocates %.1f objects per pass, want 0", allocs)
			}

			// Window.Offer: a rejected offer allocates nothing; an admitted
			// one only grows the columns — amortized slice doubling plus one
			// zone-map block per kernelBlock members. Each pass re-offers
			// the skyline round-robin under four shard tags, so every offer
			// is admitted (duplicates never dominate) and the window grows.
			sky := ds.NaiveSkyline()
			inSky := make(map[int32]bool, len(sky))
			for _, id := range sky {
				inSky[id] = true
			}
			w := NewWindow(ds.Domains, 2, tc.budget, true)
			const tagsPerPass = 32
			tag := int32(0)
			admitAll := func() {
				for range tagsPerPass {
					for _, id := range sky {
						p := &ds.Pts[id]
						if !w.Offer(p.TO, p.PO, p.ID, tag%4) {
							t.Fatalf("skyline point %d rejected", id)
						}
					}
					tag++
				}
			}
			rejectAll := func() {
				for i := range ds.Pts {
					p := &ds.Pts[i]
					if !inSky[p.ID] && w.Offer(p.TO, p.PO, p.ID, 4) {
						t.Fatalf("dominated point %d admitted", p.ID)
					}
				}
			}
			admitAll()
			if allocs := testing.AllocsPerRun(20, rejectAll); allocs != 0 {
				t.Errorf("rejected Window.Offer allocates %.1f objects per pass, want 0", allocs)
			}
			perOffer := testing.AllocsPerRun(10, admitAll) / float64(tagsPerPass*len(sky))
			// A block's zone maps are ≤ 7 objects per 256 members (0.027
			// per offer); each set's six growing slices and the member
			// index double a few times.
			if perOffer > 0.1 {
				t.Errorf("admitted Window.Offer allocates %.3f objects per offer, want only amortized column growth (≤ 0.1)", perOffer)
			}
			w.Close()

			scan := domScanWithBudget(ds, len(ds.Pts), tc.budget)
			for i := range ds.Pts {
				scan.Add(ds.Pts[i].TO, ds.Pts[i].PO)
			}
			collectAll := func() {
				for i := range ds.Pts {
					_ = scan.Dominators(ds.Pts[i].TO, ds.Pts[i].PO)
				}
			}
			collectAll() // warm-up: the result buffer reaches its high-water mark
			if allocs := testing.AllocsPerRun(20, collectAll); allocs != 0 {
				t.Errorf("DomScan.Dominators allocates %.1f objects per pass, want 0", allocs)
			}
		})
	}
}

// TestCheckerDominatedPointAllocs: every checker answers point
// dominance without allocating once its scratch is warm — the list and
// memtree in both the stabbing and the paper-literal containment modes,
// the kernel checker with and without the closure bitsets.
func TestCheckerDominatedPointAllocs(t *testing.T) {
	ds := allocDataset(11, 200)
	sky := ds.NaiveSkyline()
	for _, tc := range []struct {
		name string
		mk   func() tChecker
	}{
		{"list", func() tChecker { return newListChecker(ds.Domains, false) }},
		{"list-stab", func() tChecker { return newListChecker(ds.Domains, true) }},
		{"mem", func() tChecker { return newMemChecker(ds.Domains, 2, false) }},
		{"mem-stab", func() tChecker { return newMemChecker(ds.Domains, 2, true) }},
		{"kernel", func() tChecker { return newKernelChecker(ds.Domains, 2, 0) }},
		{"kernel-noclosure", func() tChecker { return newKernelChecker(ds.Domains, 2, -1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.mk()
			for _, id := range sky {
				c.add(&ds.Pts[id])
			}
			queryAll := func() {
				for i := range ds.Pts {
					p := &ds.Pts[i]
					_ = c.dominatedPoint(p.TO, p.PO)
				}
			}
			queryAll()
			if allocs := testing.AllocsPerRun(20, queryAll); allocs != 0 {
				t.Errorf("dominatedPoint allocates %.1f objects per pass, want 0", allocs)
			}
		})
	}
}

// TestCheckerDominatedBoxAllocBound: box dominance allocates only what
// OrdRangeIntervals must (fresh merged output, dyadic scratch when the
// ordinal range decomposes into ≥ 2 pieces). Per query that is a handful
// of objects per PO dimension — pin a small per-call bound.
func TestCheckerDominatedBoxAllocBound(t *testing.T) {
	ds := allocDataset(13, 200)
	sky := ds.NaiveSkyline()
	queries := 0
	for _, tc := range []struct {
		name string
		mk   func() tChecker
	}{
		{"list", func() tChecker { return newListChecker(ds.Domains, false) }},
		{"mem", func() tChecker { return newMemChecker(ds.Domains, 2, false) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.mk()
			for _, id := range sky {
				c.add(&ds.Pts[id])
			}
			lo := make([]int32, 2)
			hi := make([]int32, 2)
			boxAll := func() {
				queries = 0
				for i := range ds.Pts {
					p := &ds.Pts[i]
					for d, v := range p.PO {
						o := ds.Domains[d].Ord(v)
						lo[d] = o
						hi[d] = min(o+2, int32(ds.Domains[d].Size()-1))
					}
					_ = c.dominatedBox(p.TO, lo, hi)
					queries++
				}
			}
			boxAll()
			allocs := testing.AllocsPerRun(10, boxAll)
			perQuery := allocs / float64(queries)
			// 2 PO dims × (merged output + up to two levels of dyadic
			// scratch) ≈ 6; anything beyond 8 means new per-call garbage.
			if perQuery > 8 {
				t.Errorf("dominatedBox allocates %.2f objects per query, want ≤ 8", perQuery)
			}
		})
	}
}

// TestOrdRangeIntervalsAllocBound: the pooled scratch keeps
// OrdRangeIntervals down to its output (plus bounded dyadic scratch) —
// the regression this pins is unbounded per-call scratch growth.
func TestOrdRangeIntervalsAllocBound(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	dm := poset.MustDomain(randomPODomainDAG(rng, 40, 0.2))
	dm.EnableDyadic()
	n := int32(dm.Size())
	calls := 0
	sweep := func() {
		calls = 0
		for lo := int32(0); lo < n; lo += 3 {
			for hi := lo; hi < n; hi += 5 {
				_ = dm.OrdRangeIntervals(lo, hi)
				calls++
			}
		}
	}
	sweep()
	allocs := testing.AllocsPerRun(10, sweep)
	perCall := allocs / float64(calls)
	// Measured ~4.5 on this domain (merged output + dyadic piece
	// scratch); the regression this guards is unbounded growth.
	if perCall > 6 {
		t.Errorf("OrdRangeIntervals allocates %.2f objects per call, want ≤ 6", perCall)
	}
}
