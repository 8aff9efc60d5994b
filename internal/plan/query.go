// Package plan is the skyline query planner and executor: it turns a
// logical query — full, subspace, constrained, or top-k skyline, in any
// combination — into a physical plan (predicate placement, cache
// routing, early exit) and runs it: SFS's scan unless a query forces
// an algorithm, partitioned across cores when the rows it gets are
// many. Its explain output reports what ran, never an estimate.
//
// Query semantics, in evaluation order:
//
//  0. Dominance is tested under Query.Orders when set (per-request
//     preference domains over the table's PO value sets — the paper's
//     dynamic skyline), else under the table's own orders. An unranked
//     Query.Ideal re-centres every TO comparison on |v − ideal| (the
//     fully dynamic skyline); predicates still read the raw values.
//  1. R := the rows satisfying every Where predicate (all of them, over
//     the table's full dimensionality). No predicates → R is the table.
//  2. S := the skyline of R projected onto the Subspace dimensions
//     (dominance is tested on the kept dimensions only; nil Subspace
//     keeps everything). Rows whose projections tie are mutually
//     non-dominating, so all of them belong to S — the same duplicate
//     semantics as the full skyline.
//  3. TopK > 0 ranks S by Rank and keeps the best K. RankNone keeps
//     the first K in the algorithm's emission order instead (cheap with
//     a progressive algorithm: the run stops after K emissions).
//
// Result IDs are always row indexes of the original table.
//
// Predicate placement: step 1 before step 2 ("push-down") is the
// definition and always sound. The planner may instead compute the full
// skyline first and filter it afterwards ("post-filter") — profitable
// when the full skyline is already cached — but that is only equivalent
// when every predicate is anti-monotone under dominance: whenever a row
// satisfies the predicate, so does every row dominating it. Then any
// dominator knocked out by the filter is represented by a surviving
// dominator, and σ(skyline(T)) = skyline(σ(T)). The planner proves
// anti-monotonicity per predicate (see antiMonotone) and never picks
// post-filter without the proof.
package plan

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/poset"
)

// PredicateKind selects which field set of a Predicate applies.
type PredicateKind int

const (
	// TORange constrains a totally ordered column to an inclusive
	// range; HasLo/HasHi gate each bound.
	TORange PredicateKind = iota
	// POIn constrains a partially ordered column to a set of value ids.
	POIn
)

// Predicate constrains one column of the table.
type Predicate struct {
	Kind PredicateKind
	// Dim is the column index within its kind (TO column index for
	// TORange, PO column index for POIn).
	Dim int
	// HasLo/HasHi gate the inclusive TORange bounds: absent bounds are
	// unbounded, so a pure upper-bound predicate stays anti-monotone.
	HasLo, HasHi bool
	Lo, Hi       int64
	// In lists the allowed value ids of a POIn predicate.
	In []int32
}

// matches reports whether row p satisfies the predicate.
func (pr *Predicate) matches(p *core.Point) bool {
	switch pr.Kind {
	case TORange:
		v := int64(p.TO[pr.Dim])
		if pr.HasLo && v < pr.Lo {
			return false
		}
		if pr.HasHi && v > pr.Hi {
			return false
		}
		return true
	case POIn:
		v := p.PO[pr.Dim]
		for _, a := range pr.In {
			if a == v {
				return true
			}
		}
		return false
	}
	return false
}

// Subspace names the dimensions dominance is tested on: indexes into
// the table's TO and PO columns, each ascending and duplicate-free.
type Subspace struct {
	TO []int
	PO []int
}

// Rank selects the top-k ranking score.
type Rank string

const (
	// RankNone keeps the first K skyline rows in emission order — the
	// progressive fast path (paper §IV: a scan in topological order
	// emits every skyline point the moment it is certified).
	RankNone Rank = ""
	// RankDomCount orders skyline rows by the number of rows of R they
	// dominate, descending — the classic "most representative" score.
	RankDomCount Rank = "domcount"
	// RankIdeal orders skyline rows by L1 distance to an ideal point,
	// ascending — the dTSS fully-dynamic distance transform (|v − q|
	// per kept TO column, §V-B) plus, per kept PO column, the number of
	// values t-preferred to the row's value (depth below the top of the
	// preference DAG). Missing Ideal means the all-zeros origin.
	RankIdeal Rank = "ideal"
	// RankDPIDP orders skyline rows by the dominance-potential (dp-idp)
	// score, descending: every row of R dominated by exactly k skyline
	// members contributes 1/k to each of them, so members that
	// exclusively "explain" rows score highest. Index-eligible shapes
	// (full table, no filter) serve the scores from a per-table index
	// maintained across mutations.
	RankDPIDP Rank = "dpidp"
	// RankLayer returns rows by iterated-skyline depth: TopK is a depth
	// bound, and the result is every row of layers 1..K (layer 1 = the
	// skyline, layer i = the skyline of what remains) ordered by
	// (layer, id) — more rows than the skyline, by design.
	RankLayer Rank = "layer"
)

// The constants above are the rankings' canonical wire names (rank.go's
// rankNames). Names match case-insensitively; Validate and RankPartials
// canonicalise them, and every later step switches on the constant.

// Route is a physical predicate/cache placement, as reported (and
// optionally forced through Hints) by the planner.
type Route string

const (
	// RouteDirect runs the algorithm on the table as-is (no Where).
	RouteDirect Route = "direct"
	// RoutePushdown filters rows first, then computes the skyline of
	// the survivors — the definitional, always-sound placement.
	RoutePushdown Route = "pushdown"
	// RoutePostFilter computes (or reuses) the full skyline and filters
	// it afterwards — sound only under the anti-monotonicity proof.
	RoutePostFilter Route = "postfilter"
	// RouteCursor answers an unranked top-k with SFS's progressive
	// scan, which stops after K emissions.
	RouteCursor Route = "cursor"
)

// Hints lets callers pin planner decisions (benchmarking, debugging).
// Zero values mean "planner decides".
type Hints struct {
	// Algorithm forces the named serving algorithm (core.Algorithms).
	Algorithm string
	// Parallelism > 0 forces that many shards behind the partition-and-
	// merge executor; < 0 forces a sequential run; 0 lets the executor
	// decide from the rows the algorithm gets.
	Parallelism int
	// Route forces RoutePushdown or RoutePostFilter for a constrained
	// query. Forcing RoutePostFilter without the anti-monotonicity
	// proof is a planning error, not a silent wrong answer.
	Route Route
	// NoCache skips the full-skyline cache on both read and write.
	NoCache bool
	// NoKernel disables the dominance kernel (bitset closure, columnar
	// elimination, block zone maps), forcing the scalar reference path —
	// the ablation and differential-harness switch (core.Options.NoKernel).
	NoKernel bool
}

// Query is a logical skyline query. The zero value asks for the full
// skyline of the full table.
type Query struct {
	// Orders are per-request preference domains (the paper's dynamic
	// skyline, §V): one per table PO column, over that column's value
	// set; nil runs the query under the table's own orders. Everything
	// below composes with them — the same plan over the same rows under
	// these domains (see Scope).
	Orders   []*poset.Domain
	Subspace *Subspace
	Where    []Predicate
	// TopK keeps only the best K result rows (0 = all).
	TopK int
	Rank Rank
	// Ideal is one value per table TO column. A ranking that consumes it
	// (RankIdeal) takes it as its reference point; an unranked query is
	// the fully dynamic skyline (§V-B): dominance is tested on |v − ideal|
	// per TO column, so "best" means closest to the ideal.
	Ideal []int64
	// FWeights asks for the F-dominance restricted skyline instead of
	// the full one: per table TO column, a lower bound w_d ≥ 0 on the
	// scoring weight, with Σ over the kept columns ≤ 1 (see fdom.go for
	// the family W(w) this spans). Empty means unrestricted. Combines
	// with Subspace/Where/unranked TopK, but not with a Rank.
	FWeights []float64
	Hints    Hints
}

// IdealTransform reports whether Ideal re-centres TO dominance on
// |v − ideal| rather than feeding a ranking.
func (q *Query) IdealTransform() bool { return q.Ideal != nil && q.Rank == RankNone }

// Variant names the query shape for explain output and metrics.
func (q *Query) Variant() string {
	var parts []string
	if q.Subspace != nil {
		parts = append(parts, "subspace")
	}
	if len(q.Where) > 0 {
		parts = append(parts, "constrained")
	}
	if len(q.FWeights) > 0 {
		parts = append(parts, "restricted")
	}
	if q.TopK > 0 {
		parts = append(parts, "top-k")
	}
	if len(parts) == 0 {
		return "full"
	}
	s := parts[0]
	for _, p := range parts[1:] {
		s += "+" + p
	}
	return s
}

// Validate checks the query against a table shape: nTO/nPO column
// counts and per-PO-column domain sizes. It rewrites a ranking's name
// to its canonical spelling.
func (q *Query) Validate(nTO, nPO int, domainSizes []int) error {
	if q.TopK < 0 {
		return fmt.Errorf("plan: negative TopK %d", q.TopK)
	}
	if q.Hints.Algorithm != "" {
		if _, ok := core.Lookup(q.Hints.Algorithm); !ok {
			return fmt.Errorf("plan: unknown algorithm %q (have: %s)",
				q.Hints.Algorithm, strings.Join(core.AlgorithmNames(), ", "))
		}
	}
	if q.Rank != RankNone {
		r, ok := lookupRank(string(q.Rank))
		if !ok {
			return unknownRank(string(q.Rank))
		}
		if r != q.Rank {
			q.Rank = r
		}
		if q.TopK == 0 {
			return fmt.Errorf("plan: rank %q without TopK", q.Rank)
		}
	}
	if q.Orders != nil {
		if len(q.Orders) != nPO {
			return fmt.Errorf("plan: query has %d orders, table has %d PO columns", len(q.Orders), nPO)
		}
		for d, dom := range q.Orders {
			if dom == nil || dom.Size() != domainSizes[d] {
				return fmt.Errorf("plan: query order %d does not cover the column's %d values", d, domainSizes[d])
			}
		}
	}
	if q.Ideal != nil {
		if q.Rank != RankNone && q.Rank != RankIdeal {
			return fmt.Errorf("plan: ideal point without rank %q (unranked, it is the |v-ideal| transform)", RankIdeal)
		}
		if len(q.Ideal) != nTO {
			return fmt.Errorf("plan: ideal point has %d values, table has %d TO columns", len(q.Ideal), nTO)
		}
		if q.IdealTransform() {
			for _, v := range q.Ideal {
				if v < 0 || v > 1<<30 {
					return fmt.Errorf("plan: ideal value %d out of supported range [0, 2^30]", v)
				}
			}
		}
	}
	if len(q.FWeights) > 0 {
		if q.Rank != RankNone {
			return fmt.Errorf("plan: fweights cannot combine with rank %q (the restricted skyline is unranked; unranked TopK keeps a prefix)", q.Rank)
		}
		if len(q.FWeights) != nTO {
			return fmt.Errorf("plan: fweights has %d values, table has %d TO columns", len(q.FWeights), nTO)
		}
		kept := make(map[int]bool, nTO)
		if q.Subspace != nil {
			for _, d := range q.Subspace.TO {
				kept[d] = true
			}
		}
		var sum float64
		for d, w := range q.FWeights {
			if !(w >= 0) || math.IsInf(w, 0) {
				return fmt.Errorf("plan: fweights[%d] = %v: weights must be finite and >= 0", d, w)
			}
			if q.Subspace == nil || kept[d] {
				sum += w
			}
		}
		if sum > 1 {
			return fmt.Errorf("plan: fweights sum %.6g over the kept TO columns exceeds 1 (the family { v >= w, sum(v) = 1 } is empty)", sum)
		}
	}
	if s := q.Subspace; s != nil {
		if err := checkDims("TO", s.TO, nTO); err != nil {
			return err
		}
		if err := checkDims("PO", s.PO, nPO); err != nil {
			return err
		}
		if len(s.TO) == 0 {
			return fmt.Errorf("plan: subspace must keep at least one TO column")
		}
	}
	for i, pr := range q.Where {
		switch pr.Kind {
		case TORange:
			if pr.Dim < 0 || pr.Dim >= nTO {
				return fmt.Errorf("plan: predicate %d: TO column %d out of range [0, %d)", i, pr.Dim, nTO)
			}
			if !pr.HasLo && !pr.HasHi {
				return fmt.Errorf("plan: predicate %d: range with no bounds", i)
			}
			if pr.HasLo && pr.HasHi && pr.Lo > pr.Hi {
				return fmt.Errorf("plan: predicate %d: empty range [%d, %d]", i, pr.Lo, pr.Hi)
			}
		case POIn:
			if pr.Dim < 0 || pr.Dim >= nPO {
				return fmt.Errorf("plan: predicate %d: PO column %d out of range [0, %d)", i, pr.Dim, nPO)
			}
			if len(pr.In) == 0 {
				return fmt.Errorf("plan: predicate %d: empty PO value set", i)
			}
			for _, v := range pr.In {
				if v < 0 || int(v) >= domainSizes[pr.Dim] {
					return fmt.Errorf("plan: predicate %d: value id %d outside domain of %d values",
						i, v, domainSizes[pr.Dim])
				}
			}
		default:
			return fmt.Errorf("plan: predicate %d: unknown kind %d", i, pr.Kind)
		}
	}
	switch q.Hints.Route {
	case "", RoutePushdown, RoutePostFilter:
	default:
		return fmt.Errorf("plan: route hint %q is not forceable (use %q or %q)",
			q.Hints.Route, RoutePushdown, RoutePostFilter)
	}
	if q.Hints.Route != "" && len(q.Where) == 0 {
		return fmt.Errorf("plan: route hint %q without predicates", q.Hints.Route)
	}
	return nil
}

// checkDims validates one subspace dimension list: in-range, strictly
// ascending (which also rules out duplicates).
func checkDims(kind string, dims []int, n int) error {
	for i, d := range dims {
		if d < 0 || d >= n {
			return fmt.Errorf("plan: subspace %s column %d out of range [0, %d)", kind, d, n)
		}
		if i > 0 && dims[i-1] >= d {
			return fmt.Errorf("plan: subspace %s columns must be strictly ascending", kind)
		}
	}
	return nil
}

// NormalizeDims sorts and deduplicates a dimension list into the form
// Validate accepts — the front-ends' parsing helper.
func NormalizeDims(dims []int) []int {
	out := append([]int(nil), dims...)
	sort.Ints(out)
	j := 0
	for i, d := range out {
		if i > 0 && out[j-1] == d {
			continue
		}
		out[j] = d
		j++
	}
	return out[:j]
}
