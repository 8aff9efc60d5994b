package core

import (
	"fmt"

	"repro/internal/rtree"
)

// This file implements LESS (Godfrey et al., VLDBJ 2007), the strongest
// of the sort-based skyline algorithms the paper surveys in §II-A, as
// the totally ordered substrate baseline. It presorts the data by a
// monotone function, which gives it precedence, and eliminates points
// with an elimination-filter window while sorting.
//
// Its filter is only sound for totally ordered attributes (a
// topological ordinal bound does not imply preference in a partial
// order), so it rejects data sets with PO attributes: it exists as the
// TO-domain baseline the skyline literature builds on, alongside
// BNL/SFS which do generalise.

func requireTO(ds *Dataset, algo string) error {
	if ds.NumPO() != 0 {
		return fmt.Errorf("core: %s supports totally ordered attributes only (%d PO present)",
			algo, ds.NumPO())
	}
	return nil
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

func sumInt32(xs []int32) int64 {
	var s int64
	for _, x := range xs {
		s += int64(x)
	}
	return s
}
