package core

import (
	"math/bits"
	"slices"

	"repro/internal/poset"
)

// domBins is the number of quantile bins a binned dimension of a
// DomScan keeps: one bitmap per bin, so a probe's superset on that
// dimension is one of at most 64 bitmaps.
const domBins = 64

// DomScan answers the one question every dominance-based ranking asks —
// which of these members strictly dominate this point (Definition 2's
// t-dominance; exact duplicates never dominate) — from a sealed bitmap
// dominance index over the members. Each dimension keeps bitmaps that
// hold a superset of the members at least as good as a probe value on
// that dimension:
//
//   - a TO dimension keeps 64 range-encoded quantile bins: bitmap b holds
//     the members whose value is ≤ cut b, and a probe takes the first
//     cut ≥ its value (a value above every cut constrains nothing);
//   - a PO dimension keeps, per domain value v, the exact bitmap of the
//     members whose value is ⪯ v, completed from the bitmaps of v's
//     direct predecessors in the DAG the first time a probe needs it;
//   - a PO dimension whose V·⌈m/64⌉·8 bytes of exact bitmaps exceed the
//     closure budget (or with the closure off) keeps quantile bins over
//     the members' topological ordinals instead — sound because x ⪯ y
//     implies Ord(x) ≤ Ord(y).
//
// A probe ANDs one bitmap per dimension, stopping as soon as nothing
// survives, and verifies each surviving member exactly, in ascending
// member order. Dominance counts, dp-idp k-histograms, per-shard
// partials and the maintained ScoreIndex are all visitors over this
// scan.
//
// Members are added first; the first Dominators or Any call seals the
// index, and an Add after that panics. A DomScan is single-goroutine;
// Close folds its exact verifications into KernelCounters' dominance
// tests (it skips no zone-map block).
type DomScan struct {
	domains []*poset.Domain
	budget  int64 // bytes of exact bitmaps one PO dimension may hold
	cols    *Cols

	sealed bool
	words  int    // ⌈m/64⌉
	tail   uint64 // mask of the members in the last accumulator word
	to     []rangeBins
	po     []poIndex
	acc    []uint64
	out    []int32

	domTests int64
}

// rangeBins is a range-encoded quantile index over one dimension's
// per-member keys: cuts ascend, the last is the largest key, and words
// b·w … (b+1)·w−1 of bits hold the members whose key is ≤ cuts[b].
type rangeBins struct {
	cuts []int32
	bits []uint64
}

// poIndex is one PO dimension of a sealed DomScan. With exact bitmaps
// (rows non-nil), words v·w … (v+1)·w−1 of rows hold the members whose
// value is v, and once filled[v] every member whose value is ⪯ v.
// Without them, ord bins the members' topological ordinals.
type poIndex struct {
	dag    *poset.DAG
	rows   []uint64
	filled []bool
	ord    rangeBins
}

// NewDomScan returns an empty scan over points with nTO totally ordered
// attributes and one partially ordered attribute per domain, pre-sized
// for capHint members, under the default closure budget.
func NewDomScan(domains []*poset.Domain, nTO, capHint int) *DomScan {
	return newDomScan(domains, nTO, capHint, 0)
}

// newDomScan is NewDomScan under an explicit closure budget, read as
// the elimination kernels read Options.ClosureBudget: 0 →
// poset.DefaultClosureBudget, negative → closure off (ordinal bins on
// every PO dimension).
func newDomScan(domains []*poset.Domain, nTO, capHint int, budget int64) *DomScan {
	if budget == 0 {
		budget = poset.DefaultClosureBudget
	}
	return &DomScan{domains: domains, budget: budget, cols: NewCols(nTO, len(domains), capHint)}
}

// Add loads one member; members are indexed in insertion order. It
// panics once the index is sealed.
func (s *DomScan) Add(to, po []int32) {
	if s.sealed {
		panic("core: DomScan.Add after the index was sealed by a probe")
	}
	s.cols.Append(to, po, int32(s.cols.Len()))
}

// seal builds the per-dimension bitmaps over the loaded members:
// O(m log m) per binned dimension, sorting int32 keys in two scratch
// buffers shared by every dimension, and O(m) plus the zeroed rows per
// exact PO dimension.
func (s *DomScan) seal() {
	s.sealed = true
	m := s.cols.Len()
	w := (m + 63) / 64
	s.words = w
	s.tail = ^uint64(0)
	if r := m & 63; r != 0 {
		s.tail = 1<<uint(r) - 1
	}
	s.acc = make([]uint64, w)
	if m == 0 {
		return
	}
	keys, sorted := make([]int32, m), make([]int32, m)
	s.to = make([]rangeBins, len(s.cols.TO))
	for d, col := range s.cols.TO {
		s.to[d] = newRangeBins(col, sorted, w)
	}
	s.po = make([]poIndex, len(s.domains))
	for d, dm := range s.domains {
		col := s.cols.PO[d]
		if v := dm.Size(); s.budget >= 0 && int64(v)*int64(w)*8 <= s.budget {
			p := poIndex{dag: dm.DAG(), rows: make([]uint64, v*w), filled: make([]bool, v)}
			for i, c := range col {
				p.rows[int(c)*w+i>>6] |= 1 << (uint(i) & 63)
			}
			s.po[d] = p
			continue
		}
		for i, c := range col {
			keys[i] = dm.Ord(c)
		}
		s.po[d] = poIndex{ord: newRangeBins(keys, sorted, w)}
	}
}

// newRangeBins bins the per-member keys into at most domBins quantile
// cuts (ties collapse cuts) and range-encodes them into w-word bitmaps.
// sorted is scratch of len(keys).
func newRangeBins(keys, sorted []int32, w int) rangeBins {
	m := len(keys)
	copy(sorted, keys)
	slices.Sort(sorted)
	r := rangeBins{cuts: make([]int32, 0, domBins)}
	for b := 1; b <= domBins; b++ {
		if i := b*m/domBins - 1; i >= 0 && (len(r.cuts) == 0 || sorted[i] != r.cuts[len(r.cuts)-1]) {
			r.cuts = append(r.cuts, sorted[i])
		}
	}
	r.bits = make([]uint64, len(r.cuts)*w)
	for i, k := range keys {
		b, _ := slices.BinarySearch(r.cuts, k)
		r.bits[b*w+i>>6] |= 1 << (uint(i) & 63)
	}
	for b := w; b < len(r.bits); b++ {
		r.bits[b] |= r.bits[b-w]
	}
	return r
}

// and intersects acc with the superset bitmap of the members whose key
// is ≤ v and reports whether any member survives.
func (r *rangeBins) and(acc []uint64, v int32) bool {
	b, _ := slices.BinarySearch(r.cuts, v)
	if b >= len(r.cuts)-1 {
		return true // the last cut is the largest key: every member qualifies
	}
	w := len(acc)
	return andInto(acc, r.bits[b*w:(b+1)*w])
}

// row returns the exact bitmap of the members whose value is ⪯ v,
// completing it on first use: ⪯ is the reflexive-transitive closure of
// the DAG's edges, so it is v's own members OR the rows of v's direct
// predecessors.
func (p *poIndex) row(v int32, w int) []uint64 {
	r := p.rows[int(v)*w : int(v+1)*w]
	if !p.filled[v] {
		p.filled[v] = true
		for _, u := range p.dag.In(int(v)) {
			for j, x := range p.row(u, w) {
				r[j] |= x
			}
		}
	}
	return r
}

// andInto sets acc &= bm and reports whether any bit survives.
func andInto(acc, bm []uint64) bool {
	var or uint64
	for i := range acc {
		acc[i] &= bm[i]
		or |= acc[i]
	}
	return or != 0
}

// filter seals the index if needed and leaves in s.acc the members that
// survive every dimension's bitmap; false when none does.
func (s *DomScan) filter(to, po []int32) bool {
	if !s.sealed {
		s.seal()
	}
	if s.words == 0 {
		return false
	}
	acc := s.acc
	for i := range acc {
		acc[i] = ^uint64(0)
	}
	acc[len(acc)-1] = s.tail
	for d := range s.to {
		if !s.to[d].and(acc, to[d]) {
			return false
		}
	}
	for d := range s.po {
		p := &s.po[d]
		var ok bool
		if p.rows != nil {
			ok = andInto(acc, p.row(po[d], s.words))
		} else {
			ok = p.ord.and(acc, s.domains[d].Ord(po[d]))
		}
		if !ok {
			return false
		}
	}
	return true
}

// dominates verifies exactly that member i, a survivor of the bitmap
// filter, strictly dominates the point: at least as good on every
// dimension (an exact PO bitmap already proved its dimension) and not
// an exact duplicate.
func (s *DomScan) dominates(i int, to, po []int32) bool {
	s.domTests++
	strict := false
	for d, col := range s.cols.TO {
		c := col[i]
		if c > to[d] {
			return false
		}
		strict = strict || c < to[d]
	}
	for d, col := range s.cols.PO {
		c := col[i]
		if c == po[d] {
			continue
		}
		if s.po[d].rows == nil && !s.domains[d].TPrefers(c, po[d]) {
			return false
		}
		strict = true
	}
	return strict
}

// Dominators returns the indexes of the members that strictly dominate
// the point, ascending. The slice is reused by the next call.
func (s *DomScan) Dominators(to, po []int32) []int32 {
	s.out = s.out[:0]
	if !s.filter(to, po) {
		return s.out
	}
	for wi, word := range s.acc {
		for ; word != 0; word &= word - 1 {
			if i := wi<<6 | bits.TrailingZeros64(word); s.dominates(i, to, po) {
				s.out = append(s.out, int32(i))
			}
		}
	}
	return s.out
}

// Any reports whether some member strictly dominates the point.
func (s *DomScan) Any(to, po []int32) bool {
	if !s.filter(to, po) {
		return false
	}
	for wi, word := range s.acc {
		for ; word != 0; word &= word - 1 {
			if s.dominates(wi<<6|bits.TrailingZeros64(word), to, po) {
				return true
			}
		}
	}
	return false
}

// Close folds the scan's exact verifications into the process-cumulative
// KernelCounters.
func (s *DomScan) Close() {
	kernelDomTests.Add(s.domTests)
	s.domTests = 0
}
