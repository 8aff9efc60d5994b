package core

import "repro/internal/poset"

// DomScan answers the one question every dominance-based ranking asks —
// which of these members strictly dominate this point (Definition 2's
// t-dominance; exact duplicates never dominate) — on the columnar
// kernel: members are loaded once into a colSet, each probe compiles the
// point's closure bitsets and collects its dominators block by block
// with zone-map skips. Dominance counts, dp-idp k-histograms, per-shard
// partials and the maintained ScoreIndex are all visitors over this
// scan. A DomScan is single-goroutine; Close folds its dominance-test
// and block-skip counts into KernelCounters.
type DomScan struct {
	k   *colSet
	pr  *probe
	out []int32
}

// NewDomScan returns an empty scan over points with nTO totally ordered
// attributes and one partially ordered attribute per domain, pre-sized
// for capHint members. Closures are enabled by the elimination kernels'
// default budget rule (see newColSet).
func NewDomScan(domains []*poset.Domain, nTO, capHint int) *DomScan {
	k := newColSet(domains, nTO, capHint, 0, false)
	return &DomScan{k: k, pr: k.newProbe()}
}

// Add loads one member; members are indexed in insertion order.
func (s *DomScan) Add(to, po []int32) {
	s.k.append(to, po, int32(s.k.cols.Len()), -1)
}

// Dominators returns the indexes of the members that strictly dominate
// the point, ascending. The slice is reused by the next call.
func (s *DomScan) Dominators(to, po []int32) []int32 {
	s.k.begin(s.pr, to, po, false)
	s.out = s.k.dominators(s.pr, s.out[:0])
	return s.out
}

// Any reports whether some member strictly dominates the point.
func (s *DomScan) Any(to, po []int32) bool {
	s.k.begin(s.pr, to, po, false)
	return s.k.anyDominator(s.pr)
}

// Close folds the scan's counters into the process-cumulative
// KernelCounters.
func (s *DomScan) Close() { s.pr.addTo(&Metrics{}) }
