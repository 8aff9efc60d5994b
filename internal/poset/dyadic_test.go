package poset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestDyadicMatchesDirect: for every ordinal range, the dyadic lookup
// must return exactly the same merged set as the direct merge of all
// per-value sets in the range.
func TestDyadicMatchesDirect(t *testing.T) {
	dag, parents := figure2DAG()
	dm := MustDomain(dag, WithTreeParents(parents))
	// Direct results captured before enabling the index.
	n := int32(dm.Size())
	direct := make(map[[2]int32]IntervalSet)
	for lo := int32(0); lo < n; lo++ {
		for hi := lo; hi < n; hi++ {
			direct[[2]int32{lo, hi}] = dm.OrdRangeIntervals(lo, hi).Clone()
		}
	}
	dm.EnableDyadic()
	if dm.dy.Load() == nil {
		t.Fatal("dyadic index not enabled")
	}
	for lo := int32(0); lo < n; lo++ {
		for hi := lo; hi < n; hi++ {
			got := dm.OrdRangeIntervals(lo, hi)
			if !got.Equal(direct[[2]int32{lo, hi}]) {
				t.Errorf("range [%d,%d]: dyadic %v, direct %v",
					lo, hi, got, direct[[2]int32{lo, hi}])
			}
		}
	}
}

// TestDyadicRandomDomains repeats the equivalence check on random DAGs,
// including sizes that are not powers of two.
func TestDyadicRandomDomains(t *testing.T) {
	prop := func(seed int64, nRaw, pRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%30) + 2
		p := float64(pRaw%80)/100 + 0.05
		dag := randomDAG(rng, n, p)
		plain := MustDomain(dag)
		indexed := MustDomain(dag.Clone())
		indexed.EnableDyadic()
		for trial := 0; trial < 20; trial++ {
			lo := int32(rng.Intn(n))
			hi := lo + int32(rng.Intn(n-int(lo)))
			if !plain.OrdRangeIntervals(lo, hi).Equal(indexed.OrdRangeIntervals(lo, hi)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestOrdRangeClamping(t *testing.T) {
	dag, _ := figure2DAG()
	dm := MustDomain(dag)
	full := dm.OrdRangeIntervals(0, 8)
	if got := dm.OrdRangeIntervals(-5, 100); !got.Equal(full) {
		t.Errorf("clamped range = %v, want %v", got, full)
	}
	if got := dm.OrdRangeIntervals(5, 2); got != nil {
		t.Errorf("inverted range should be empty, got %v", got)
	}
}

// decomposeOrdRange returns the interval sets of the dyadic pieces
// covering the ordinal range [lo, hi], without OrdRangeIntervals' final
// merge.
func (dm *Domain) decomposeOrdRange(lo, hi int32) []IntervalSet {
	dy := dm.dy.Load()
	if dy == nil {
		return nil
	}
	l := int(lo) + dy.size
	r := int(hi) + dy.size + 1
	var out []IntervalSet
	for l < r {
		if l&1 == 1 {
			out = append(out, dy.sets[l])
			l++
		}
		if r&1 == 1 {
			r--
			out = append(out, dy.sets[r])
		}
		l >>= 1
		r >>= 1
	}
	return out
}

// TestDyadicDecomposition: decomposed pieces jointly cover exactly the
// requested range's merged set.
func TestDyadicDecomposition(t *testing.T) {
	dag, parents := figure2DAG()
	dm := MustDomain(dag, WithTreeParents(parents))
	dm.EnableDyadic()
	for lo := int32(0); lo < 9; lo++ {
		for hi := lo; hi < 9; hi++ {
			pieces := dm.decomposeOrdRange(lo, hi)
			var all []Interval
			for _, s := range pieces {
				all = append(all, s...)
			}
			if !MergeIntervals(all).Equal(dm.OrdRangeIntervals(lo, hi)) {
				t.Errorf("decomposition of [%d,%d] does not re-merge", lo, hi)
			}
			// Segment-tree decomposition uses O(2 log n) pieces.
			if len(pieces) > 8 {
				t.Errorf("range [%d,%d]: %d pieces, want ≤ 8", lo, hi, len(pieces))
			}
		}
	}
}

func TestReachabilityBasics(t *testing.T) {
	dag, _ := figure2DAG()
	r := NewReachability(dag)
	// a reaches everything (8 values); i reaches nothing.
	if r.Count(0) != 8 {
		t.Errorf("Count(a) = %d, want 8", r.Count(0))
	}
	if r.Count(8) != 0 {
		t.Errorf("Count(i) = %d, want 0", r.Count(8))
	}
	if r.Reaches(0, 0) {
		t.Error("Reaches must be irreflexive")
	}
	if !r.Leq(3, 3) {
		t.Error("Leq must be reflexive")
	}
	if !r.Reaches(5, 7) { // f→h via non-tree edge
		t.Error("f must reach h")
	}
	if r.Reaches(7, 5) {
		t.Error("h must not reach f")
	}
}

// TestReachabilityTransitive: reachability is transitively closed.
func TestReachabilityTransitive(t *testing.T) {
	prop := func(seed int64, nRaw, pRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%20) + 2
		p := float64(pRaw%80)/100 + 0.05
		dag := randomDAG(rng, n, p)
		r := NewReachability(dag)
		for x := int32(0); x < int32(n); x++ {
			for y := int32(0); y < int32(n); y++ {
				if !r.Reaches(x, y) {
					continue
				}
				for z := int32(0); z < int32(n); z++ {
					if r.Reaches(y, z) && !r.Reaches(x, z) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
