package core

import (
	"math"
	"time"

	"repro/internal/rtree"
)

// STSS computes the static skyline of ds with the paper's sTSS
// algorithm (§IV): best-first (BBS-style) traversal of an R-tree built
// in the precedence-preserving (TO…, ATO…) space, with the exact
// t-dominance check of Definition 2 — so it never admits false hits,
// never revokes an output, and emits each skyline point the moment it
// is examined (optimal progressiveness).
//
// Index construction is charged to the build counters; the query phase
// charges a page read per R-tree node visit.
func STSS(ds *Dataset, opt Options) *Result {
	res, _ := NewSTSSCursor(ds, opt).Drain(opt.Ctx)
	return res
}

// buildSTSSTree bulk-loads the sTSS index: an R-tree over the
// (TO…, topological ordinal…) coordinates of every point. Leaf entry
// ids are indexes into ds.Pts.
func buildSTSSTree(ds *Dataset, opt Options, io *rtree.IOCounter) *rtree.Tree {
	dims := ds.NumTO() + ds.NumPO()
	pts := make([]rtree.Point, len(ds.Pts))
	for i := range ds.Pts {
		pts[i] = rtree.Point{Coords: stssCoords(ds.Domains, &ds.Pts[i]), ID: int32(i)}
	}
	return rtree.BulkLoad(dims, pts, opt.capacityFor(dims), io)
}

// BNL computes the skyline with a block-nested-loops candidate list
// using the exact dominance oracle (TPrefers per PO dimension). It is
// neither progressive (output happens only at the end) nor precedence-
// aware; it serves as a simple correct baseline and as the local-
// skyline substrate of the dTSS pre-processing optimisation. The
// candidate list is the kernel's evicting Window unless opt.NoKernel
// selects the scalar reference loop.
func BNL(ds *Dataset, opt Options) *Result {
	opt = opt.withDefaults()
	if opt.NoKernel {
		return bnlScalar(ds, &opt)
	}
	res := &Result{}
	clock := newEmitClock(&rtree.IOCounter{})
	w := NewWindow(ds.Domains, ds.NumTO(), opt.ClosureBudget, false)
	for i := range ds.Pts {
		if opt.canceled(i) {
			return res
		}
		p := &ds.Pts[i]
		w.Offer(p.TO, p.PO, p.ID, -1)
	}
	res.SkylineIDs = w.aliveIDs(res.SkylineIDs)
	for _, id := range res.SkylineIDs {
		res.Metrics.Emissions = append(res.Metrics.Emissions, clock.emission(id))
	}
	w.pr.addTo(&res.Metrics)
	res.Metrics.CPU = clock.elapsed()
	return res
}

// bnlScalar is the scalar *Point/interval BNL the kernel path is
// validated against (Options.NoKernel).
func bnlScalar(ds *Dataset, opt *Options) *Result {
	res := &Result{}
	clock := newEmitClock(&rtree.IOCounter{})
	var cands []*Point
	var checks int64
	for i := range ds.Pts {
		if opt.canceled(i) {
			return res
		}
		p := &ds.Pts[i]
		dominated := false
		keep := cands[:0]
		for _, c := range cands {
			if dominated {
				keep = append(keep, c)
				continue
			}
			checks++
			if DominatesUnder(ds.Domains, c, p) {
				dominated = true
				keep = append(keep, c)
				continue
			}
			checks++
			if !DominatesUnder(ds.Domains, p, c) {
				keep = append(keep, c)
			}
		}
		cands = keep
		if !dominated {
			cands = append(cands, p)
		}
	}
	for _, c := range cands {
		res.SkylineIDs = append(res.SkylineIDs, c.ID)
		res.Metrics.Emissions = append(res.Metrics.Emissions, clock.emission(c.ID))
	}
	res.Metrics.DomChecks = checks
	res.Metrics.CPU = clock.elapsed()
	return res
}

// SFS computes the skyline by presorting on a preference function that
// is monotone under exact dominance — the sum of TO coordinates and
// topological ordinals (SFSOrder) — and then scanning with a candidate
// list (Chomicki et al.; ScanSorted). The presort establishes
// precedence, so accepted points are emitted immediately and never
// evicted; the grow-only window runs on the dominance kernel unless
// opt.NoKernel.
func SFS(ds *Dataset, opt Options) *Result {
	start := time.Now()
	res := ScanSorted(ds, SFSOrder(ds), opt, nil)
	res.Metrics.CPU = time.Since(start)
	return res
}

// SFSOrder returns ds's row indexes sorted by SFS's presort key, ties
// by index. The key of a row is the sum of its TO coordinates and
// topological ordinals — its L1 mindist in sTSS's index space — and a
// strict t-dominator always has a strictly smaller key, so every row
// this order puts first is undominated.
func SFSOrder(ds *Dataset) []int32 {
	order := make([]int32, len(ds.Pts))
	key := make([]int64, len(ds.Pts))
	for i := range ds.Pts {
		order[i] = int32(i)
		key[i] = sfsKey(ds, &ds.Pts[i])
	}
	sortByKey(order, key)
	return order
}

// sfsKey is SFSOrder's key of p.
func sfsKey(ds *Dataset, p *Point) int64 {
	var s int64
	for _, v := range p.TO {
		s += int64(v)
	}
	for d, v := range p.PO {
		s += int64(ds.Domains[d].Ord(v))
	}
	return s
}

// ScanSorted is the grow-only window scan over ds's rows in order,
// which must be sorted by a function monotone under dominance — SFS's
// and every progressive query's SFSOrder, LESS's survivors by TO sum.
// Precedence makes every undominated row definite, so it is accepted at
// once and never evicted. The window runs on the dominance kernel
// unless opt.NoKernel selects the scalar reference loop; opt.Ctx is
// polled every dynCtxCheckEvery rows and abandons the scan.
//
// emit, when non-nil, sees the id of each accepted row the moment the
// scan reaches it, with the row's SFS key and bound, the key of the
// next row in order (math.MaxInt64 after the last) — under SFSOrder a
// lower bound on the key of every later acceptance. emit returning
// false stops the scan. The result lists the accepted ids in order.
func ScanSorted(ds *Dataset, order []int32, opt Options, emit func(id int32, key, bound int64) bool) *Result {
	res := &Result{}
	clock := newEmitClock(&rtree.IOCounter{})
	var k *colSet
	var pr *probe
	if !opt.NoKernel {
		k = newColSet(ds.Domains, ds.NumTO(), 64, opt.ClosureBudget, false)
		pr = k.newProbe()
		defer pr.addTo(&res.Metrics)
	}
	defer func() { res.Metrics.CPU = clock.elapsed() }()
	var sky []*Point
	for i, idx := range order {
		if opt.canceled(i) {
			return res
		}
		p := &ds.Pts[idx]
		dominated := false
		if k != nil {
			k.begin(pr, p.TO, p.PO)
			dominated = k.anyDominator(pr)
		} else {
			for _, s := range sky {
				res.Metrics.DomChecks++
				if DominatesUnder(ds.Domains, s, p) {
					dominated = true
					break
				}
			}
		}
		if dominated {
			continue
		}
		if k != nil {
			k.append(p.TO, p.PO, p.ID)
		} else {
			sky = append(sky, p)
		}
		res.SkylineIDs = append(res.SkylineIDs, p.ID)
		res.Metrics.Emissions = append(res.Metrics.Emissions, clock.emission(p.ID))
		if emit != nil {
			bound := int64(math.MaxInt64)
			if i+1 < len(order) {
				bound = sfsKey(ds, &ds.Pts[order[i+1]])
			}
			if !emit(p.ID, sfsKey(ds, p), bound) {
				return res
			}
		}
	}
	return res
}

// sortByKey sorts order by ascending key, breaking ties by id for
// determinism (simple bottom-up merge sort to avoid sort.Slice's
// interface overhead on large inputs).
func sortByKey(order []int32, key []int64) {
	n := len(order)
	buf := make([]int32, n)
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid := lo + width
			hi := lo + 2*width
			if mid > n {
				mid = n
			}
			if hi > n {
				hi = n
			}
			i, j, k := lo, mid, lo
			for i < mid && j < hi {
				a, b := order[i], order[j]
				if key[a] < key[b] || (key[a] == key[b] && a <= b) {
					buf[k] = a
					i++
				} else {
					buf[k] = b
					j++
				}
				k++
			}
			copy(buf[k:], order[i:mid])
			k += mid - i
			copy(buf[k:], order[j:hi])
			copy(order[lo:hi], buf[lo:hi])
		}
	}
}
