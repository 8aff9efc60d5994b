package poset

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Domain is a fully preprocessed partially ordered domain: a DAG plus
// everything the TSS framework derives from it —
//
//   - a deterministic topological sort (value ↔ ordinal maps), which
//     gives the ATO coordinate that enforces *precedence*;
//   - a spanning tree with postorder [minpost, post] labels;
//   - per-value merged interval sets after non-tree-edge propagation,
//     which give the exact t-preference check (*exactness*);
//   - uncovered levels (strata used by the SDC/SDC+ baselines);
//   - an optional dyadic-range index for ordinal-range interval lookup.
//
// Domains are immutable after construction and safe for concurrent
// reads.
type Domain struct {
	dag *DAG

	ord   []int32 // value -> topological ordinal, 0-based
	byOrd []int32 // ordinal -> value

	treeParent []int32 // value -> spanning-tree parent, -1 for roots
	post       []int32 // value -> postorder number, 1-based
	minpost    []int32 // value -> min post among tree descendants (incl. self)

	sets  []IntervalSet // value -> merged interval set (propagation result)
	level []int32       // value -> uncovered level
	maxLv int32

	// dy is the lazily built dyadic-range index. It is published through
	// an atomic pointer so EnableDyadic may race concurrent readers
	// (skyline queries calling OrdRangeIntervals): tables cloned for a
	// snapshot swap share their compiled domains with the table still
	// serving queries, so sealing the clone must not perturb in-flight
	// reads of the original.
	dy   atomic.Pointer[dyadicIndex]
	dyMu sync.Mutex // serializes the one-time index build

	// reach is the lazily built transitive-closure bitset (the serving
	// fast path of TPrefers) and reachT its transpose (predecessor
	// rows, used by the dominance kernel's member rows). Same publication
	// discipline as dy: built once under reachMu, published atomically,
	// shared by snapshot clones.
	reach   atomic.Pointer[Reachability]
	reachT  atomic.Pointer[Reachability]
	reachMu sync.Mutex
}

// domainConfig carries construction options.
type domainConfig struct {
	treeParents []int32
}

// Option customises Domain construction.
type Option func(*domainConfig)

// WithTreeParents fixes the spanning-tree parent of each value (-1 for
// roots). Used to reproduce published examples exactly; the default rule
// picks, for each value, the in-neighbour with the largest topological
// ordinal. Parents must be DAG in-neighbours of their children.
func WithTreeParents(parents []int32) Option {
	return func(c *domainConfig) { c.treeParents = parents }
}

// NewDomain preprocesses dag into a Domain. The DAG must be acyclic.
func NewDomain(dag *DAG, opts ...Option) (*Domain, error) {
	var cfg domainConfig
	for _, o := range opts {
		o(&cfg)
	}
	order, err := dag.TopologicalOrder()
	if err != nil {
		return nil, err
	}
	n := dag.N()
	dm := &Domain{
		dag:   dag,
		byOrd: order,
		ord:   make([]int32, n),
	}
	for i, v := range order {
		dm.ord[v] = int32(i)
	}
	if err := dm.buildSpanningTree(cfg.treeParents); err != nil {
		return nil, err
	}
	dm.numberPostorder()
	dm.propagateIntervals()
	dm.computeLevels()
	return dm, nil
}

// MustDomain is NewDomain that panics on error.
func MustDomain(dag *DAG, opts ...Option) *Domain {
	dm, err := NewDomain(dag, opts...)
	if err != nil {
		panic(err)
	}
	return dm
}

// buildSpanningTree selects one tree parent per non-root value. The
// default policy picks the in-neighbour with the largest topological
// ordinal (the "closest" predecessor), which tends to keep tree paths
// long and capture more preferences in the tree intervals.
func (dm *Domain) buildSpanningTree(explicit []int32) error {
	n := dm.dag.N()
	dm.treeParent = make([]int32, n)
	if explicit != nil {
		if len(explicit) != n {
			return fmt.Errorf("poset: WithTreeParents length %d, want %d", len(explicit), n)
		}
		for v := 0; v < n; v++ {
			p := explicit[v]
			if p == -1 {
				dm.treeParent[v] = -1
				continue
			}
			ok := false
			for _, u := range dm.dag.In(v) {
				if u == p {
					ok = true
					break
				}
			}
			if !ok {
				return fmt.Errorf("poset: %d is not an in-neighbour of %d", p, v)
			}
			dm.treeParent[v] = p
		}
		return nil
	}
	for v := 0; v < n; v++ {
		best := int32(-1)
		for _, u := range dm.dag.In(v) {
			if best == -1 || dm.ord[u] > dm.ord[best] {
				best = u
			}
		}
		dm.treeParent[v] = best
	}
	return nil
}

// numberPostorder performs a postorder traversal of the spanning forest
// (roots and children visited in topological-ordinal order, matching the
// paper's Figure 2) and assigns 1-based post numbers and minposts.
func (dm *Domain) numberPostorder() {
	n := dm.dag.N()
	children := make([][]int32, n)
	var roots []int32
	// Iterating values in ordinal order makes children lists (and the
	// root list) ordinal-sorted without an extra sort.
	for i := 0; i < n; i++ {
		v := dm.byOrd[i]
		if p := dm.treeParent[v]; p >= 0 {
			children[p] = append(children[p], v)
		} else {
			roots = append(roots, v)
		}
	}
	dm.post = make([]int32, n)
	dm.minpost = make([]int32, n)
	next := int32(1)
	// Iterative postorder DFS; state is the child index per frame.
	type frame struct {
		v  int32
		ci int
	}
	stack := make([]frame, 0, 64)
	for _, r := range roots {
		stack = append(stack, frame{r, 0})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.ci < len(children[f.v]) {
				c := children[f.v][f.ci]
				f.ci++
				stack = append(stack, frame{c, 0})
				continue
			}
			// All children numbered: number v.
			dm.post[f.v] = next
			mp := next
			for _, c := range children[f.v] {
				if dm.minpost[c] < mp {
					mp = dm.minpost[c]
				}
			}
			dm.minpost[f.v] = mp
			next++
			stack = stack[:len(stack)-1]
		}
	}
}

// propagateIntervals computes the final merged interval set of every
// value: its own tree interval plus the full sets of all direct DAG
// successors, processed in reverse topological order so each successor
// set is already final. This mirrors the paper's Figure 2(d): intervals
// reachable only through non-tree edges are copied upward, then subsumed
// or coalesced.
func (dm *Domain) propagateIntervals() {
	n := dm.dag.N()
	dm.sets = make([]IntervalSet, n)
	scratch := make([]Interval, 0, 16)
	for i := n - 1; i >= 0; i-- {
		v := dm.byOrd[i]
		scratch = scratch[:0]
		scratch = append(scratch, Interval{dm.minpost[v], dm.post[v]})
		for _, c := range dm.dag.Out(int(v)) {
			scratch = append(scratch, dm.sets[c]...)
		}
		// MergeIntervals reorders scratch but returns fresh storage, so
		// reusing scratch across iterations is safe.
		dm.sets[v] = MergeIntervals(scratch)
	}
}

// computeLevels assigns each value its uncovered level: the maximum
// number of non-tree edges on any incoming path (paper §II-C). Values
// with level 0 are "completely covered"; SDC+ uses one stratum per
// level. Levels are monotone along edges: x→y implies level(x) ≤
// level(y).
func (dm *Domain) computeLevels() {
	n := dm.dag.N()
	dm.level = make([]int32, n)
	dm.maxLv = 0
	for i := 0; i < n; i++ {
		v := dm.byOrd[i]
		lv := int32(0)
		for _, u := range dm.dag.In(int(v)) {
			l := dm.level[u]
			if u != dm.treeParent[v] {
				l++ // non-tree edge
			}
			if l > lv {
				lv = l
			}
		}
		dm.level[v] = lv
		if lv > dm.maxLv {
			dm.maxLv = lv
		}
	}
}

// Size returns the number of values in the domain.
func (dm *Domain) Size() int { return dm.dag.N() }

// DAG returns the underlying preference graph.
func (dm *Domain) DAG() *DAG { return dm.dag }

// Ord returns the topological ordinal of value v (the ATO coordinate).
func (dm *Domain) Ord(v int32) int32 { return dm.ord[v] }

// ValueAt returns the value with topological ordinal i.
func (dm *Domain) ValueAt(i int32) int32 { return dm.byOrd[i] }

// Post returns the 1-based postorder number of v in the spanning tree.
func (dm *Domain) Post(v int32) int32 { return dm.post[v] }

// Intervals returns the final merged interval set of v (paper Figure
// 2(d), fourth column). The slice is shared; callers must not modify it.
func (dm *Domain) Intervals(v int32) IntervalSet { return dm.sets[v] }

// Level returns the uncovered level of v.
func (dm *Domain) Level(v int32) int32 { return dm.level[v] }

// MaxLevel returns the largest uncovered level in the domain; the
// SDC/SDC+ stratum count is MaxLevel()+1.
func (dm *Domain) MaxLevel() int32 { return dm.maxLv }

// TPrefers reports whether x is t-preferred over y (Definition 1),
// which — after propagation — is exactly DAG reachability x→y for
// x ≠ y.
//
// Internally it uses the equivalent stabbing form: x reaches y iff
// post(y) lies inside some interval of Set(x). (If an interval of x
// stabs post(y), that interval is the tree interval of a node w
// reachable from x with y in w's subtree, hence x→w→y; conversely if
// x→y then y's tree interval was propagated into Set(x).)
func (dm *Domain) TPrefers(x, y int32) bool {
	if x == y {
		return false
	}
	// Bitset fast path: when the closure is built, preference is one
	// word test instead of an interval-set search. The interval form
	// below remains the fallback and the correctness reference the
	// closure is fuzzed against.
	if r := dm.reach.Load(); r != nil {
		return r.Reaches(x, y)
	}
	return dm.sets[x].Stabs(dm.post[y])
}

// TPrefersContainment is the paper-literal form of Definition 1: every
// interval of y must be contained in (or coincide with) some interval of
// x. It is semantically identical to TPrefers for x ≠ y and is kept for
// the ablation benchmarks.
func (dm *Domain) TPrefersContainment(x, y int32) bool {
	if x == y {
		return false
	}
	return dm.sets[x].CoversSet(dm.sets[y])
}

// Leq reports x == y or x t-preferred over y ("at least as good").
func (dm *Domain) Leq(x, y int32) bool {
	return x == y || dm.TPrefers(x, y)
}

// PostRun returns the interval of v's merged set that contains v's own
// postorder position. Covering this single run is necessary and
// sufficient for reaching v, which lets point-level dominance checks use
// one query instead of one per interval (the "stab-only" fast path).
func (dm *Domain) PostRun(v int32) Interval {
	p := dm.post[v]
	s := dm.sets[v]
	for _, iv := range s {
		if iv.Stabs(p) {
			return iv
		}
	}
	// Unreachable: the tree interval [minpost,post] always contains post
	// and survives merging.
	return Interval{p, p}
}

// MInterval returns the single spanning-tree interval used by the
// m-dominance mapping of Chan et al.: value v maps to the point
// (minpost-1, |D|-post) in the transformed I1×I2 space, where smaller is
// better on both axes. Interval containment in the original space is
// coordinate-wise ≤ in the transformed space.
func (dm *Domain) MInterval(v int32) Interval { return Interval{dm.minpost[v], dm.post[v]} }

// MCoords returns v's transformed m-dominance coordinates (both
// minimised): (minpost-1, N-post).
func (dm *Domain) MCoords(v int32) (int32, int32) {
	return dm.minpost[v] - 1, int32(dm.dag.N()) - dm.post[v]
}

// MDominatesValue reports whether x's single tree interval covers or
// coincides with y's — the per-dimension test of m-dominance. It is a
// *stronger* relation than preference: true implies x reaches-or-equals
// y, but false does not imply unreachability.
func (dm *Domain) MDominatesValue(x, y int32) bool {
	return dm.MInterval(x).Contains(dm.MInterval(y))
}

// OrdRangeIntervals returns the merged interval set of all values whose
// topological ordinal lies in [loOrd, hiOrd] — the interval set of an
// R-tree MBB's PO range. If the dyadic index is enabled the lookup costs
// O(log |D|); otherwise the sets are merged directly.
func (dm *Domain) OrdRangeIntervals(loOrd, hiOrd int32) IntervalSet {
	if loOrd < 0 {
		loOrd = 0
	}
	if hiOrd >= int32(dm.dag.N()) {
		hiOrd = int32(dm.dag.N()) - 1
	}
	if loOrd > hiOrd {
		return nil
	}
	if loOrd == hiOrd {
		return dm.sets[dm.byOrd[loOrd]]
	}
	if dy := dm.dy.Load(); dy != nil {
		return dy.rangeIntervals(loOrd, hiOrd)
	}
	// Pooled scratch: without the dyadic index this path runs per
	// MBB-pruning check, and growing a fresh slice each call dominated
	// the -benchmem profile. MergeIntervals reorders scratch but returns
	// fresh storage, so the pooled slice never escapes.
	sp := ordScratchPool.Get().(*[]Interval)
	scratch := (*sp)[:0]
	for i := loOrd; i <= hiOrd; i++ {
		scratch = append(scratch, dm.sets[dm.byOrd[i]]...)
	}
	out := MergeIntervals(scratch)
	*sp = scratch
	ordScratchPool.Put(sp)
	return out
}

// ordScratchPool recycles OrdRangeIntervals' merge scratch across
// calls on the slow (non-dyadic) path.
var ordScratchPool = sync.Pool{New: func() any { return new([]Interval) }}

// EnableDyadic precomputes the dyadic-range index (sTSS optimisation
// §IV-B): the merged interval sets of all dyadic ordinal ranges, linear
// space, turning OrdRangeIntervals into an O(log |D|) lookup.
//
// EnableDyadic is idempotent and safe to call concurrently with itself
// and with queries: the index is built once under a mutex and published
// atomically, so readers either see the finished index or fall back to
// the direct merge — never a partially built structure.
func (dm *Domain) EnableDyadic() {
	if dm.dy.Load() != nil {
		return
	}
	dm.dyMu.Lock()
	defer dm.dyMu.Unlock()
	if dm.dy.Load() == nil {
		dm.dy.Store(newDyadicIndex(dm))
	}
}
