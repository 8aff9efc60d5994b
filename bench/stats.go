package main

import (
	"fmt"
	"sort"
)

// Sample floors: a percentile with fewer samples behind it is one or
// two ops deciding the number, and the run fails instead of reporting
// it.
const (
	floorP50 = 20
	floorP90 = 100
)

// percentile returns the p-th percentile (0 < p < 100) of xs by linear
// interpolation between closest ranks. xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	sort.Float64s(xs)
	if len(xs) == 1 {
		return xs[0]
	}
	pos := p / 100 * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// floored returns the p-th percentile, or an error when the class has
// not reached the percentile's sample floor.
func floored(class string, xs []float64, p float64) (float64, error) {
	floor := floorP50
	if p > 50 {
		floor = floorP90
	}
	if len(xs) < floor {
		return 0, fmt.Errorf("class %s: %d samples, p%.0f needs %d", class, len(xs), p, floor)
	}
	return percentile(xs, p), nil
}

// quartileSpread is the driver's steadiness measure: the distance
// between the first and third quartile as a share of the median, with
// the quartiles of Python's statistics.quantiles(xs, n=4) (exclusive
// method).
func quartileSpread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based rank
		lo := int(pos)
		if lo < 1 {
			return s[0]
		}
		if lo >= len(s) {
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	m := q(2)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / m
}
