package core

import (
	"repro/internal/poset"
	"repro/internal/rtree"
)

// tChecker answers exact t-dominance questions against the skyline
// points accepted so far. Implementations must be exact: no false hits
// for points (dominatedPoint true ⟺ some accepted point strictly
// dominates the candidate), and sound for boxes (dominatedBox true ⟹
// every point inside is dominated; false may be conservative).
//
// Three implementations exist. The kernel checker is the default: point
// checks are the dominance kernel's grow-only window test
// (ScanSorted's), and box checks stay on a candidate list's interval
// test. The candidate-list scan on its own (Options.NoKernel) is the
// configuration the paper benchmarks "for fairness" and counts checks
// with. The in-memory R-tree over virtual points with Boolean range
// queries (paper §IV-B, Options.UseMemTree) counts far fewer checks but
// pays an R-tree insert per interval combination of every accepted
// point, which measured 26–70× slower end to end; both stay for the
// paper's figures and ablations (internal/exp), and the memtree also
// for MaintainSkyline.
type tChecker interface {
	// dominatedPoint reports whether the point (to, vals) is strictly
	// t-dominated by an accepted point.
	dominatedPoint(to []int32, vals []int32) bool
	// dominatedBox reports whether every point of the box with TO lower
	// corner toLo and per-PO-dimension topological-ordinal ranges
	// [ordLo[d], ordHi[d]] is t-dominated.
	dominatedBox(toLo []int32, ordLo, ordHi []int32) bool
	// add accepts a skyline point.
	add(p *Point)
	// checks returns the number of elementary dominance-check
	// operations performed (list comparisons, kernel member tests or
	// R-tree leaf predicate evaluations).
	checks() int64
}

// The exactness argument shared by both implementations (t-dominance,
// the paper's §III and Definition 2, decided on merged interval runs):
//
// A witness skyline point s answers the query for one interval run q of
// a candidate value y's merged set when (a) s.TO ⪯ candidate TO, (b)
// some interval of s covers q, and (c) strictness holds: s is strictly
// better in a TO dimension, or post(s_d) lies outside q_d in some PO
// dimension d. Covering the run that contains post(y) implies s_d
// reaches-or-equals y; post(s_d) ∈ q_d together with coverage forces
// s_d == y_d (mutual reachability in a DAG), so the strictness test is
// exact for points. Requiring all runs (in all combinations across PO
// dimensions) to find witnesses is exact for points and sound for
// boxes, where different values of the range may be dominated by
// different witnesses (joint coverage).

// scratchSlice returns a length-n slice backed by buf when it is big
// enough — the checkers' per-call scratch, allocation-free in the
// steady state.
func scratchSlice[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// forEachCombo iterates the cartesian product of per-dimension interval
// lists into the caller's combo scratch (len(lists) entries are used).
// fn returning false aborts and makes forEachCombo return false. An
// empty lists slice yields exactly one empty combo (the pure-TO case).
// Plain recursion — not a self-referential closure — so the walk itself
// never heap-allocates.
func forEachCombo(lists []poset.IntervalSet, combo []poset.Interval, fn func(combo []poset.Interval) bool) bool {
	return comboRec(lists, combo[:len(lists)], 0, fn)
}

func comboRec(lists []poset.IntervalSet, combo []poset.Interval, d int, fn func(combo []poset.Interval) bool) bool {
	if d == len(lists) {
		return fn(combo)
	}
	for _, iv := range lists[d] {
		combo[d] = iv
		if !comboRec(lists, combo, d+1, fn) {
			return false
		}
	}
	return true
}

// skyEntry caches the per-dimension data needed to use an accepted
// skyline point as a dominance witness.
type skyEntry struct {
	to    []int32
	vals  []int32
	posts []int32             // post(vals[d])
	sets  []poset.IntervalSet // Intervals(vals[d])
}

func makeSkyEntry(domains []*poset.Domain, p *Point) skyEntry {
	e := skyEntry{to: p.TO, vals: p.PO}
	e.posts = make([]int32, len(p.PO))
	e.sets = make([]poset.IntervalSet, len(p.PO))
	for d, v := range p.PO {
		e.posts[d] = domains[d].Post(v)
		e.sets[d] = domains[d].Intervals(v)
	}
	return e
}

// listChecker keeps the skyline as a flat candidate list — the
// scan-based paradigm of §III-A and the configuration the paper's
// headline experiments use for TSS.
type listChecker struct {
	domains  []*poset.Domain
	sky      []skyEntry
	nChecks  int64
	stabOnly bool

	lists []poset.IntervalSet // dominatedBox scratch
	combo []poset.Interval
}

func newListChecker(domains []*poset.Domain, stabOnly bool) *listChecker {
	return &listChecker{domains: domains, stabOnly: stabOnly}
}

func (c *listChecker) checks() int64 { return c.nChecks }

func (c *listChecker) add(p *Point) {
	c.sky = append(c.sky, makeSkyEntry(c.domains, p))
}

func (c *listChecker) dominatedPoint(to []int32, vals []int32) bool {
	for i := range c.sky {
		c.nChecks++
		if c.entryDominatesPoint(&c.sky[i], to, vals) {
			return true
		}
	}
	return false
}

// entryDominatesPoint is exact strict t-dominance of one accepted point
// over a candidate point. The stabOnly flag switches the per-dimension
// preference test between the stabbing form and the paper-literal
// ∀-interval containment form; both are exact (ablation).
func (c *listChecker) entryDominatesPoint(s *skyEntry, to []int32, vals []int32) bool {
	strict := false
	for d, sv := range s.to {
		cv := to[d]
		if sv > cv {
			return false
		}
		if sv < cv {
			strict = true
		}
	}
	for d, sv := range s.vals {
		cv := vals[d]
		if sv == cv {
			continue
		}
		dm := c.domains[d]
		var pref bool
		if c.stabOnly {
			pref = dm.TPrefers(sv, cv)
		} else {
			pref = dm.TPrefersContainment(sv, cv)
		}
		if !pref {
			return false
		}
		strict = true
	}
	return strict
}

func (c *listChecker) dominatedBox(toLo []int32, ordLo, ordHi []int32) bool {
	c.lists = scratchSlice(c.lists, len(ordLo))
	c.combo = scratchSlice(c.combo, len(ordLo))
	for d := range ordLo {
		c.lists[d] = c.domains[d].OrdRangeIntervals(ordLo[d], ordHi[d])
	}
	// Every combination of runs must find a witness (joint coverage).
	return forEachCombo(c.lists, c.combo, func(combo []poset.Interval) bool {
		for i := range c.sky {
			c.nChecks++
			if c.entryCoversCombo(&c.sky[i], toLo, combo) {
				return true
			}
		}
		return false
	})
}

// entryCoversCombo reports whether s witnesses one run combination: TO
// at least as good as the box corner, every run covered, and the
// strictness condition (strict TO or post outside the covered run).
func (c *listChecker) entryCoversCombo(s *skyEntry, toLo []int32, combo []poset.Interval) bool {
	strict := false
	for d, sv := range s.to {
		cv := toLo[d]
		if sv > cv {
			return false
		}
		if sv < cv {
			strict = true
		}
	}
	for d, q := range combo {
		if !s.sets[d].Covers(q) {
			return false
		}
		if !q.Stabs(s.posts[d]) {
			strict = true
		}
	}
	return strict
}

// memChecker stores each accepted skyline point as one or more virtual
// points in an in-memory R-tree over (TO…, I1, I2 per PO dimension) and
// answers dominance questions with Boolean range queries (paper §IV-B
// second optimisation, and the global tree of dTSS in §V-A). The
// strictness predicate is evaluated per leaf entry, keeping the check
// exact even for duplicates.
type memChecker struct {
	domains  []*poset.Domain
	nTO      int
	sizes    []int32 // domain sizes, for the I2 reflection N - hi
	tree     *rtree.Tree
	owners   [][]int32 // virtual point id -> owner's posts per PO dim
	nChecks  int64
	stabOnly bool
	hi       []int32 // query scratch
	lo       []int32 // all-zeros scratch

	lists    []poset.IntervalSet // dominated{Point,Box} scratch
	combo    []poset.Interval
	stabRuns []poset.Interval // backing runs of the stabOnly one-interval lists
}

// memTreeCapacity is the fan-out of the in-memory dominance tree; small
// nodes keep the Boolean queries CPU-friendly.
const memTreeCapacity = 16

func newMemChecker(domains []*poset.Domain, nTO int, stabOnly bool) *memChecker {
	dims := nTO + 2*len(domains)
	c := &memChecker{
		domains:  domains,
		nTO:      nTO,
		sizes:    make([]int32, len(domains)),
		tree:     rtree.New(dims, memTreeCapacity, nil),
		stabOnly: stabOnly,
		hi:       make([]int32, dims),
		lo:       make([]int32, dims),
	}
	for d, dm := range domains {
		c.sizes[d] = int32(dm.Size())
	}
	return c
}

func (c *memChecker) checks() int64 { return c.nChecks }

// add inserts one virtual point per combination of the owner's interval
// sets across PO dimensions: coordinates (TO…, q.Lo, N−q.Hi, …), all
// minimised, so that covering = coordinate-wise ≤.
func (c *memChecker) add(p *Point) {
	lists := make([]poset.IntervalSet, len(p.PO))
	posts := make([]int32, len(p.PO))
	for d, v := range p.PO {
		lists[d] = c.domains[d].Intervals(v)
		posts[d] = c.domains[d].Post(v)
	}
	forEachCombo(lists, make([]poset.Interval, len(lists)), func(combo []poset.Interval) bool {
		coords := make([]int32, c.nTO+2*len(combo))
		copy(coords, p.TO)
		for d, q := range combo {
			coords[c.nTO+2*d] = q.Lo
			coords[c.nTO+2*d+1] = c.sizes[d] - q.Hi
		}
		id := int32(len(c.owners))
		c.owners = append(c.owners, posts)
		c.tree.Insert(rtree.Point{Coords: coords, ID: id})
		return true
	})
}

// queryCombo runs one Boolean range query: does an accepted virtual
// point cover this run combination with the strictness predicate?
func (c *memChecker) queryCombo(toLo []int32, combo []poset.Interval) bool {
	copy(c.hi, toLo)
	for d, q := range combo {
		c.hi[c.nTO+2*d] = q.Lo
		c.hi[c.nTO+2*d+1] = c.sizes[d] - q.Hi
	}
	return c.tree.RangeExists(c.lo, c.hi, func(e rtree.Entry) bool {
		c.nChecks++
		// Inside the box ⟹ TO ⪯ and all runs covered; test strictness.
		for d := 0; d < c.nTO; d++ {
			if e.Lo[d] < toLo[d] {
				return true
			}
		}
		posts := c.owners[e.ID]
		for d, q := range combo {
			if !q.Stabs(posts[d]) {
				return true
			}
		}
		return false
	})
}

func (c *memChecker) dominatedPoint(to []int32, vals []int32) bool {
	c.lists = scratchSlice(c.lists, len(vals))
	c.combo = scratchSlice(c.combo, len(vals))
	c.stabRuns = scratchSlice(c.stabRuns, len(vals))
	for d, v := range vals {
		if c.stabOnly {
			c.stabRuns[d] = c.domains[d].PostRun(v)
			c.lists[d] = c.stabRuns[d : d+1 : d+1]
		} else {
			c.lists[d] = c.domains[d].Intervals(v)
		}
	}
	return forEachCombo(c.lists, c.combo, func(combo []poset.Interval) bool {
		return c.queryCombo(to, combo)
	})
}

func (c *memChecker) dominatedBox(toLo []int32, ordLo, ordHi []int32) bool {
	c.lists = scratchSlice(c.lists, len(ordLo))
	c.combo = scratchSlice(c.combo, len(ordLo))
	for d := range ordLo {
		c.lists[d] = c.domains[d].OrdRangeIntervals(ordLo[d], ordHi[d])
	}
	return forEachCombo(c.lists, c.combo, func(combo []poset.Interval) bool {
		return c.queryCombo(toLo, combo)
	})
}

// kernelChecker answers point checks from a grow-only dominance-kernel
// colSet: sTSS and dTSS accept members in precedence order and never
// revoke one, so the point check is ScanSorted's window test, begin +
// anyDominator, over a set that never evicts or compacts. Box checks
// (R-tree nodes, which the point-level kernel cannot decide) stay on the
// embedded list's joint-coverage test, so every accepted member is
// appended to both.
type kernelChecker struct {
	*listChecker
	set    *colSet
	pr     *probe
	folded Metrics // probe counters already folded into KernelCounters
}

func newKernelChecker(domains []*poset.Domain, nTO int, budget int64) *kernelChecker {
	set := newColSet(domains, nTO, 64, budget, false)
	return &kernelChecker{listChecker: newListChecker(domains, false), set: set, pr: set.newProbe()}
}

func (c *kernelChecker) add(p *Point) {
	c.set.append(p.TO, p.PO, p.ID)
	c.listChecker.add(p)
}

func (c *kernelChecker) dominatedPoint(to []int32, vals []int32) bool {
	c.set.begin(c.pr, to, vals)
	return c.set.anyDominator(c.pr)
}

// checks is the list's box checks plus the kernel's member tests.
func (c *kernelChecker) checks() int64 {
	return c.nChecks + c.folded.DomChecks + c.pr.domTests
}

// checkerMetrics sets m's dominance counters from c. A kernel checker
// also folds the probe work done since its previous call into the
// process-cumulative KernelCounters, so each test is counted there once
// however often a cursor's Metrics is read.
func checkerMetrics(c tChecker, m *Metrics) {
	if k, ok := c.(*kernelChecker); ok {
		k.pr.addTo(&k.folded)
		m.BlocksSkipped = k.folded.BlocksSkipped
	}
	m.DomChecks = c.checks()
}

// newChecker builds the checker selected by the options: the memtree
// under UseMemTree, the bare candidate list under NoKernel, otherwise
// the kernel checker.
func newChecker(domains []*poset.Domain, nTO int, opt Options) tChecker {
	switch {
	case opt.UseMemTree:
		return newMemChecker(domains, nTO, opt.StabOnly)
	case opt.NoKernel:
		return newListChecker(domains, opt.StabOnly)
	}
	return newKernelChecker(domains, nTO, opt.ClosureBudget)
}
