package poset

// dyadicIndex precomputes, for every dyadic range of the topologically
// sorted domain, the merged interval set of the values in that range
// (sTSS optimisation, paper §IV-B). A dyadic range at level l covers
// 2^(maxLevel-l) consecutive ordinals; any query range [lo,hi]
// decomposes into O(log |D|) dyadic ranges, so MBB interval lookup is
// logarithmic with linear storage (instead of the quadratic all-ranges
// hash table the paper first considers).
//
// The index is laid out as a complete binary segment tree over the
// ordinal axis, padded to the next power of two; node 1 is the root and
// node i's children are 2i and 2i+1. Leaves hold the per-value sets.
type dyadicIndex struct {
	size int           // padded leaf count (power of two)
	n    int           // true domain size
	sets []IntervalSet // 2*size entries, segment-tree order
}

func newDyadicIndex(dm *Domain) *dyadicIndex {
	n := dm.Size()
	size := 1
	for size < n {
		size <<= 1
	}
	dy := &dyadicIndex{size: size, n: n, sets: make([]IntervalSet, 2*size)}
	for i := 0; i < n; i++ {
		dy.sets[size+i] = dm.sets[dm.byOrd[i]]
	}
	scratch := make([]Interval, 0, 32)
	for i := size - 1; i >= 1; i-- {
		l, r := dy.sets[2*i], dy.sets[2*i+1]
		switch {
		case len(l) == 0:
			dy.sets[i] = r
		case len(r) == 0:
			dy.sets[i] = l
		default:
			scratch = scratch[:0]
			scratch = append(scratch, l...)
			scratch = append(scratch, r...)
			dy.sets[i] = MergeIntervals(scratch)
		}
	}
	return dy
}

// rangeIntervals returns the merged interval set of ordinals [lo, hi]
// by standard segment-tree decomposition into O(log) precomputed sets.
func (dy *dyadicIndex) rangeIntervals(lo, hi int32) IntervalSet {
	l := int(lo) + dy.size
	r := int(hi) + dy.size + 1 // exclusive
	var scratch []Interval
	var single IntervalSet
	pieces := 0
	add := func(s IntervalSet) {
		if len(s) == 0 {
			return
		}
		pieces++
		if pieces == 1 {
			single = s
			return
		}
		if pieces == 2 {
			scratch = append(scratch, single...)
		}
		scratch = append(scratch, s...)
	}
	for l < r {
		if l&1 == 1 {
			add(dy.sets[l])
			l++
		}
		if r&1 == 1 {
			r--
			add(dy.sets[r])
		}
		l >>= 1
		r >>= 1
	}
	if pieces <= 1 {
		return single
	}
	return MergeIntervals(scratch)
}
