package core

import (
	"fmt"
	"sort"

	"repro/internal/rtree"
)

// This file implements the two strongest sort-based skyline algorithms
// the paper surveys in §II-A — SaLSa (Bartolini et al., TODS 2008) and
// LESS (Godfrey et al., VLDBJ 2007) — as totally ordered substrate
// baselines. Both presort the data by a monotone function, which gives
// them precedence; SaLSa additionally maintains a *stop point* that can
// terminate the scan before the data is exhausted, and LESS eliminates
// points with an elimination-filter window while sorting.
//
// Their early-termination machinery is only sound for totally ordered
// attributes (a topological ordinal bound does not imply preference in
// a partial order), so both reject data sets with PO attributes: in
// this repository they exist as the TO-domain baselines the skyline
// literature builds on, alongside BNL/SFS which do generalise.

func requireTO(ds *Dataset, algo string) error {
	if ds.NumPO() != 0 {
		return fmt.Errorf("core: %s supports totally ordered attributes only (%d PO present)",
			algo, ds.NumPO())
	}
	return nil
}

// SaLSa computes the TO skyline with sort-and-limit-skyline-scan:
// points are sorted by their minimum coordinate (ties by sum), and the
// scan stops as soon as the next point's sort key provably exceeds what
// the current *stop point* — the skyline point with the smallest
// maximum coordinate — dominates. Points after the stop are never
// examined; Metrics.PointsPruned counts them. opt is accepted for the
// shared Algorithm signature; SaLSa has no tunables.
func SaLSa(ds *Dataset, opt Options) (*Result, error) {
	if err := requireTO(ds, "SaLSa"); err != nil {
		return nil, err
	}
	res := &Result{}
	clock := newEmitClock(&rtree.IOCounter{})

	n := len(ds.Pts)
	order := make([]int32, n)
	minK := make([]int64, n)
	sumK := make([]int64, n)
	for i := range ds.Pts {
		order[i] = int32(i)
		minK[i] = minCoord(ds.Pts[i].TO)
		sumK[i] = sumInt32(ds.Pts[i].TO)
	}
	// Sort by (min coordinate, sum, id): monotone under dominance —
	// a dominating point has min ≤ and, at equal min, a strictly
	// smaller sum. Two explicit keys avoid packing overflows.
	sort.Slice(order, func(a, b int) bool {
		x, y := order[a], order[b]
		if minK[x] != minK[y] {
			return minK[x] < minK[y]
		}
		if sumK[x] != sumK[y] {
			return sumK[x] < sumK[y]
		}
		return x < y
	})

	useKernel := !opt.withDefaults().NoKernel
	var k *colSet
	var pr *probe
	var sky []*Point
	var checks int64
	if useKernel {
		k = newColSet(ds.Domains, ds.NumTO(), 64, opt.ClosureBudget, false)
		pr = k.newProbe()
	}
	// Stop point: the skyline point minimising its maximum coordinate.
	stopMax := int64(-1)
	examined := 0
	for i, idx := range order {
		if opt.canceled(i) {
			return res, nil
		}
		p := &ds.Pts[idx]
		if stopMax >= 0 && minCoord(p.TO) > stopMax {
			// Every remaining point q has min(q) ≥ min(p) > stopMax, so
			// the stop point strictly dominates all of them.
			break
		}
		examined++
		dominated := false
		if useKernel {
			k.begin(pr, p.TO, p.PO, false)
			dominated = k.anyDominator(pr)
		} else {
			for _, s := range sky {
				checks++
				if toDominates(s.TO, p.TO) {
					dominated = true
					break
				}
			}
		}
		if dominated {
			continue
		}
		if useKernel {
			k.append(p.TO, p.PO, p.ID, -1)
		} else {
			sky = append(sky, p)
		}
		res.SkylineIDs = append(res.SkylineIDs, p.ID)
		res.Metrics.Emissions = append(res.Metrics.Emissions, clock.emission(p.ID))
		if mx := maxCoord(p.TO); stopMax < 0 || mx < stopMax {
			stopMax = mx
		}
	}
	res.Metrics.PointsPruned = int64(n - examined) // skipped unexamined
	res.Metrics.DomChecks = checks
	if useKernel {
		pr.addTo(&res.Metrics)
	}
	res.Metrics.CPU = clock.elapsed()
	return res, nil
}

func minCoord(to []int32) int64 {
	m := int64(to[0])
	for _, v := range to[1:] {
		if int64(v) < m {
			m = int64(v)
		}
	}
	return m
}

func maxCoord(to []int32) int64 {
	m := int64(to[0])
	for _, v := range to[1:] {
		if int64(v) > m {
			m = int64(v)
		}
	}
	return m
}

// LESS computes the TO skyline with linear-elimination-sort: pass one
// streams the data through a small elimination-filter window of
// low-entropy (small-sum) points, dropping dominated tuples before they
// are ever sorted; the survivors are sorted by sum and scanned as in
// SFS. Metrics.PointsPruned counts the points the filter eliminated
// before sorting. The filter window size comes from opt.LESSWindow
// (DefaultLESSWindow when zero).
func LESS(ds *Dataset, opt Options) (*Result, error) {
	if err := requireTO(ds, "LESS"); err != nil {
		return nil, err
	}
	window := opt.withDefaults().LESSWindow
	if window < 1 {
		window = DefaultLESSWindow
	}
	res := &Result{}
	clock := newEmitClock(&rtree.IOCounter{})
	var checks int64

	// Pass 1: elimination filter. ef holds at most `window` points with
	// the smallest sums seen so far.
	type efEntry struct {
		p   *Point
		sum int64
	}
	var ef []efEntry
	var survivors []int32
	for i := range ds.Pts {
		if opt.canceled(i) {
			return res, nil
		}
		p := &ds.Pts[i]
		sum := sumInt32(p.TO)
		dominated := false
		for _, e := range ef {
			checks++
			if toDominates(e.p.TO, p.TO) {
				dominated = true
				break
			}
		}
		if dominated {
			res.Metrics.PointsPruned++
			continue
		}
		survivors = append(survivors, int32(i))
		// Keep the window filled with the smallest-sum points: they
		// have the highest pruning power.
		if len(ef) < window {
			ef = append(ef, efEntry{p: p, sum: sum})
		} else {
			worst, worstSum := -1, int64(-1)
			for k, e := range ef {
				if e.sum > worstSum {
					worst, worstSum = k, e.sum
				}
			}
			if sum < worstSum {
				ef[worst] = efEntry{p: p, sum: sum}
			}
		}
	}

	// Pass 2: sort survivors by sum, then SFS scan. The elimination
	// filter stays scalar (it is a handful of points); the window scan
	// runs on the kernel unless opt.NoKernel.
	key := make([]int64, len(ds.Pts))
	for _, idx := range survivors {
		key[idx] = sumInt32(ds.Pts[idx].TO)
	}
	sortByKey(survivors, key)
	o := opt.withDefaults()
	scanSorted(ds, survivors, &o, clock, res)
	res.Metrics.DomChecks += checks
	res.Metrics.CPU = clock.elapsed()
	return res, nil
}
