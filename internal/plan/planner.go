package plan

import (
	"fmt"
	"math"
	"runtime"
	"strings"

	"repro/internal/core"
	"repro/internal/poset"
)

// Cache is the skyline result cache the executor may route through: it
// stores the skyline of the full table (all rows, all dimensions) plus
// one entry per queried subspace (keyed by SubspaceKey), all describing
// the table state the cache belongs to. Implementations must be safe
// for concurrent use; the serving layer binds one to each immutable
// snapshot.
// Gets additionally report whether the entry was produced by delta
// maintenance (MemoCache.Advance) rather than a cold compute on this
// row set — explain output surfaces the distinction as the
// "maintained" route flavour.
type Cache interface {
	GetFull() (ids []int32, maintained, ok bool)
	PutFull([]int32)
	GetSubspace(key string) (ids []int32, maintained, ok bool)
	PutSubspace(key string, ids []int32)
}

// ScoreIndexCache is the optional capability (probed by interface
// assertion, so existing Cache implementations keep working) of a cache
// that also persists the table's dp-idp score index. MemoCache
// implements it and advances the index across mutations.
type ScoreIndexCache interface {
	GetScoreIndex() (*core.ScoreIndex, bool)
	PutScoreIndex(*core.ScoreIndex)
}

// Env is the planning context: the table's statistics, the feedback
// store, an optional full-skyline cache and the table's resident scan
// order. All fields may be nil — Stats is computed on the fly, feedback
// is dropped, no cache routing, every SFS scan sorts its own rows.
type Env struct {
	Stats   *Stats
	Learned *Learned
	Cache   Cache
	// Order returns the rows of exactly the dataset the plan runs on
	// in SFS's presort order (core.SFSOrder), sorting them on first
	// use; resident reports that the order was already there (this
	// query paid no sort). The executor calls it only for scans over
	// the unprojected, unfiltered dataset.
	Order func() (order []int32, resident bool)
}

// scope resolves what q plans and runs over, given a table's rows and
// the derived state of its own orders. New, Run, RunStream and
// RankPartials each open with it, so callers pass the table's ds and env.
// A query under the table's orders keeps both (bar the cache, under
// Hints.NoCache). One that brings its own dominance — Orders, or the
// ideal-point transform — keeps the rows and the table's Stats only: no
// resident scan order or score index (both encode the table's
// dominance), no feedback store (a request-scoped fraction would fold
// into the table's EWMAs, or grow one key per distinct DAG), and the
// cache through ordersView — not at all under the transform, whose
// coordinates no entry describes. q must have passed Validate on ds.
func (q *Query) scope(ds *core.Dataset, env Env) (*core.Dataset, Env) {
	if q.Hints.NoCache {
		env.Cache = nil
	}
	if q.Orders == nil && !q.IdealTransform() {
		return ds, env
	}
	scoped := Env{Stats: env.Stats}
	if q.Orders != nil {
		ds = &core.Dataset{Domains: q.Orders, Pts: ds.Pts}
		if !q.IdealTransform() {
			scoped.Cache = ordersView(env.Cache, q.Orders)
		}
	}
	return ds, scoped
}

// domainSizes lists ds's per-PO-column value counts, Validate's shape.
func domainSizes(ds *core.Dataset) []int {
	sizes := make([]int, len(ds.Domains))
	for d, dom := range ds.Domains {
		sizes[d] = dom.Size()
	}
	return sizes
}

// Candidate is one algorithm the planner costed, for explain output.
type Candidate struct {
	Name       string  `json:"name"`
	EstSeconds float64 `json:"estSeconds"`
}

// Explain is the JSON-ready account of a planning decision, attached to
// query responses and printed by the CLIs' -explain flags. Observed*
// fields are filled in by the executor after the run.
type Explain struct {
	Variant      string      `json:"variant"`
	Algorithm    string      `json:"algorithm"`
	Forced       bool        `json:"forced,omitempty"`
	Parallelism  int         `json:"parallelism,omitempty"`
	Route        Route       `json:"route"`
	RouteReason  string      `json:"routeReason,omitempty"`
	AntiMonotone bool        `json:"antiMonotone,omitempty"`
	EstRows      int         `json:"estimatedRows"`
	EstSkyline   int         `json:"estimatedSkyline"`
	EstSeconds   float64     `json:"estimatedSeconds"`
	SkyFracFrom  string      `json:"skylineFracSource"`
	Candidates   []Candidate `json:"candidates,omitempty"`
	CacheHit     bool        `json:"cacheHit,omitempty"`
	// Maintained reports that the cache entry this plan serves from was
	// carried across mutations by delta maintenance rather than computed
	// cold on this row set.
	Maintained bool `json:"maintained,omitempty"`
	// RankedFrom reports where a ranked top-k's scores came from:
	// "index" (the maintained per-table score index), "memo" (scored
	// over a memoised skyline) or "cold" (scored over a freshly
	// computed skyline). Empty for unranked queries.
	RankedFrom string `json:"rankedFrom,omitempty"`
	// Kernel names the dominance-kernel configuration the run's
	// elimination loops use: "bitset+columnar" (closure bitsets fit the
	// memory budget on every kept PO domain), "columnar" (columnar scans
	// with interval/ordinal fallback per dominance test), or "interval"
	// (Hints.NoKernel scalar reference path).
	Kernel string `json:"kernel,omitempty"`
	// CursorIndex reports where an SFS scan — every cursor-route run,
	// and a buffered sequential sfs run — got its presorted row order:
	// "resident" (the snapshot already held it) or "built" (this query
	// sorted). Empty when no such scan ran.
	CursorIndex string `json:"cursorIndex,omitempty"`

	// ObservedRows counts the rows the executor actually fed an
	// algorithm (0 on cache hits) — compare with EstRows to judge the
	// selectivity estimate.
	ObservedSeconds float64 `json:"observedSeconds"`
	ObservedRows    int     `json:"observedRows"`
	ObservedSkyline int     `json:"observedSkyline"`
}

// Plan is a physical execution plan: the logical query plus every
// decision the optimizer made. Plans are single-use — Run fills the
// Explain's observed fields.
type Plan struct {
	Query   Query
	Explain Explain

	algo      core.Algorithm
	shards    int // partition-and-merge shard count; 0 = sequential
	route     Route
	earlyExit bool    // RouteCursor: stop the progressive scan after TopK
	cached    []int32 // full or subspace skyline served from Env.Cache, nil on miss
	keptTO    []int   // resolved subspace (identity when Query.Subspace == nil)
	keptPO    []int
	// baseVariant is the kept-dimension key (SubspaceKey) — the memo +
	// learned-frac key of the *unrestricted* skyline this query shape
	// derives from; variant appends the weight-constraint suffix for
	// restricted queries and equals baseVariant otherwise. Unrestricted
	// feedback and cache writes use baseVariant so a restricted
	// workload never pollutes the unrestricted EWMAs, while the
	// restricted result memoises and learns under variant.
	baseVariant string
	variant     string
	fvtx        [][]float64 // restriction vertices (kept order), nil when unrestricted
	// cachedRestricted marks p.cached as an already-restricted memo
	// entry — the executor's restriction stage is skipped.
	cachedRestricted bool
	estRows          int
	estSky           int
	predBase         float64   // static model prediction before the learned multiplier
	prior            costPrior // chosen algorithm's model, for observation-time feedback

	cursorRows int // rows the cursor route scanned (observed-rows reporting)
}

// costPrior is the static cost model of one algorithm:
//
//	seconds ≈ (A·n·log2(n) + B·(1 + POB·p)·n·m) × 1e-9
//
// with n input rows, m skyline rows and p partially ordered dimensions.
// A carries the per-row work (sorting, index bulk-load, topological
// preprocessing), B the pairwise dominance work that survives the
// algorithm's pruning, and POB how much a PO dimension inflates one
// dominance check (interval probes instead of integer compares). sTSS's
// prior is larger than SFS's term by term, so a plan picks it only when
// the learned multipliers say so; it runs when a query forces it. The
// constants were fitted by hand to one wall-clock run of every
// algorithm on the paper's default static configuration at n=20k (2 TO,
// 2 PO, h=8, d=0.8; correlated, independent and anti-correlated) on a
// 1-CPU container, and have not been re-fitted since; deliberately
// rough — Learned.CostMultiplier corrects each algorithm per table from
// observed runs.
type costPrior struct{ A, B, POB float64 }

// costPriors has an entry for every serving algorithm (core.Algorithms);
// a missing one would model as free and win every plan.
var costPriors = map[string]costPrior{
	"stss": {A: 25, B: 3.5, POB: 20},
	"bnl":  {A: 5, B: 3, POB: 0.75},
	"sfs":  {A: 8, B: 2.5, POB: 0.5},
	"less": {A: 8, B: 1.2},
}

// modelSeconds evaluates the static cost model.
func (c costPrior) modelSeconds(n, m, effPO int) float64 {
	if n <= 0 {
		return 0
	}
	fn, fm := float64(n), float64(m)
	return (c.A*fn*math.Log2(fn+2) + c.B*(1+c.POB*float64(effPO))*fn*fm) * 1e-9
}

// parallelMinRows is the input size below which the partition-and-merge
// executor's fixed overhead outweighs its speedup.
const parallelMinRows = 20_000

// New plans q against a table's rows ds and derived state env (scope
// decides what a query that brings its own dominance sees of them). The
// plan is ready to Run with the same ds and env; its Explain describes
// every decision (before observation fields).
func New(ds *core.Dataset, q Query, env Env) (*Plan, error) {
	if err := q.Validate(ds.NumTO(), ds.NumPO(), domainSizes(ds)); err != nil {
		return nil, err
	}
	ds, env = q.scope(ds, env)
	stats := env.Stats
	if stats == nil {
		stats = Analyze(ds)
	}

	p := &Plan{Query: q, Explain: Explain{Variant: q.Variant()}}
	p.keptTO, p.keptPO = resolveSubspace(q.Subspace, ds.NumTO(), ds.NumPO())
	p.baseVariant = SubspaceKey(q.Subspace)
	p.variant = p.baseVariant
	if len(q.FWeights) > 0 {
		p.fvtx = FVertices(q.FWeights, p.keptTO)
		p.variant = p.baseVariant + "|" + fweightsKey(q.FWeights, p.keptTO)
	}

	// Route: push-down is the definition; post-filter needs the
	// anti-monotonicity proof and pays off only when the full skyline is
	// already cached (the filtered run reads fewer rows otherwise).
	antiMono, proofReason := allAntiMonotone(ds, q)
	p.Explain.AntiMonotone = antiMono
	cache := env.Cache
	useCache := cache != nil
	var cachedFull []int32
	cacheHas := false
	cacheMaint := false
	if useCache && q.Subspace == nil {
		cachedFull, cacheMaint, cacheHas = cache.GetFull()
	}
	switch {
	case len(q.Where) == 0:
		p.route = RouteDirect
		restrictedHit := false
		if p.fvtx != nil && useCache {
			// Restricted results memoise under their weight-suffixed key;
			// a miss still reuses the unrestricted base entry below as
			// elimination input (ND ⊆ SKY).
			if ids, maint, ok := cache.GetSubspace(p.variant); ok {
				p.cached = ids
				p.cachedRestricted = true
				p.Explain.Maintained = maint
				p.Explain.RouteReason = fmt.Sprintf("restricted skyline cached (key %s)", p.variant)
				restrictedHit = true
			}
		}
		switch {
		case restrictedHit:
		case q.Subspace == nil && cacheHas:
			p.cached = cachedFull
			p.Explain.Maintained = cacheMaint
			if cacheMaint {
				p.Explain.RouteReason = "full skyline maintained across mutations"
			} else {
				p.Explain.RouteReason = "full skyline cached"
			}
		case q.Subspace != nil && useCache:
			// Subspace-keyed memo: repeated subspace queries on the same
			// snapshot are served without recomputation, exactly like
			// repeated full queries.
			if ids, maint, ok := cache.GetSubspace(p.baseVariant); ok {
				p.cached = ids
				p.Explain.Maintained = maint
				if maint {
					p.Explain.RouteReason = fmt.Sprintf("subspace skyline maintained across mutations (key %s)", p.baseVariant)
				} else {
					p.Explain.RouteReason = fmt.Sprintf("subspace skyline cached (key %s)", p.baseVariant)
				}
			}
		}
	case q.Hints.Route == RoutePostFilter:
		if !antiMono {
			return nil, fmt.Errorf("plan: post-filter route forced but not provably sound (%s)", proofReason)
		}
		if q.Subspace != nil {
			return nil, fmt.Errorf("plan: post-filter route needs the full-dimensional skyline; a subspace query cannot use it")
		}
		p.route = RoutePostFilter
		p.Explain.RouteReason = "forced by hint"
		if cacheHas {
			p.cached = cachedFull
			p.Explain.Maintained = cacheMaint
		}
	case q.Hints.Route == RoutePushdown:
		p.route = RoutePushdown
		p.Explain.RouteReason = "forced by hint"
	case antiMonotoneUsable(q, antiMono) && cacheHas:
		p.route = RoutePostFilter
		p.cached = cachedFull
		p.Explain.Maintained = cacheMaint
		if cacheMaint {
			p.Explain.RouteReason = "predicates anti-monotone and full skyline maintained across mutations"
		} else {
			p.Explain.RouteReason = "predicates anti-monotone and full skyline cached"
		}
	default:
		p.route = RoutePushdown
		if antiMono {
			p.Explain.RouteReason = "anti-monotone but no cached skyline: filtering first reads fewer rows"
		} else {
			p.Explain.RouteReason = proofReason
		}
	}

	// Cardinality estimates. The post-filter route runs the algorithm
	// (when the cache misses) over the whole table.
	n := stats.Rows
	sel := selectivity(stats, q.Where)
	p.estRows = n
	if p.route == RoutePushdown {
		p.estRows = int(math.Ceil(sel * float64(n)))
	}
	frac, fracSrc := skylineFrac(stats, env.Learned, p.variant, len(p.keptTO)+len(p.keptPO))
	p.Explain.SkyFracFrom = fracSrc
	p.estSky = int(math.Ceil(frac * float64(p.estRows)))
	if p.estSky < 1 && p.estRows > 0 {
		p.estSky = 1
	}

	// Unranked top-k never needs the full skyline: the SFS scan over
	// the presorted order stops after K accepted rows (optimal
	// progressiveness, paper §IV). Not applicable when the post-filter
	// route would discard an unknown number of results, and skipped
	// when the caller forced a shard count — the scan is sequential, so
	// honoring the hint means running the full partition-and-merge pass
	// and truncating.
	// A restricted query can never stop early: the weight-constraint
	// elimination needs every skyline member before TopK truncates.
	hinted := strings.ToLower(q.Hints.Algorithm)
	p.earlyExit = q.TopK > 0 && q.Rank == RankNone && len(q.FWeights) == 0 &&
		p.route != RoutePostFilter &&
		p.cached == nil && q.Hints.Parallelism <= 0 && (hinted == "" || hinted == "sfs")

	// Dominance-kernel selection, reported up front so Explain shows
	// which elimination path the run will take and so the cost model can
	// discount PO dominance work when the closure bitsets apply.
	p.Explain.Kernel = kernelLabel(ds, p.keptPO, q.Hints.NoKernel)

	// Algorithm choice: capability-gated cost minimization, unless
	// forced. A projection that drops every PO column widens the field
	// to the TO-only sort-based algorithms.
	effPO := len(p.keptPO)
	p.chooseAlgorithm(env.Learned, effPO, hinted)

	// Rankings that declare their own cost-model term (RankCoster) add
	// it to the estimate. The term lands after algorithm choice, so it
	// changes what explain reports, never which plan runs.
	if q.TopK > 0 && q.Rank != RankNone {
		if r, ok := LookupRanker(string(q.Rank)); ok {
			if rc, ok := r.(RankCoster); ok {
				p.Explain.EstSeconds += rc.RankCostSeconds(p.estRows, p.estSky, len(p.keptTO)+len(p.keptPO), q.TopK)
			}
		}
	}

	// Parallelism: the partition-and-merge executor pays off on large
	// inputs on multi-core hosts; it is pure overhead for cursor runs
	// (which stop early) and cache hits.
	switch {
	case q.Hints.Parallelism > 0:
		p.shards = q.Hints.Parallelism
	case q.Hints.Parallelism < 0:
		p.shards = 0
	case p.earlyExit || p.cached != nil:
		p.shards = 0
	case runtime.GOMAXPROCS(0) > 1 && p.estRows >= parallelMinRows:
		p.shards = runtime.GOMAXPROCS(0)
	}

	p.Explain.Route = p.route
	p.Explain.Parallelism = p.shards
	if p.earlyExit {
		p.explainCursor()
	}
	p.Explain.EstRows = p.estRows
	p.Explain.EstSkyline = p.estSky
	p.Explain.CacheHit = p.cached != nil
	return p, nil
}

// explainCursor rewrites the explain output for a run the sequential
// SFS scan serves, whatever the buffered plan chose.
func (p *Plan) explainCursor() {
	p.Explain.Algorithm = "sfs"
	p.Explain.Route = RouteCursor
	p.Explain.Parallelism = 0
}

// kernelLabel names the dominance-kernel configuration a run over the
// kept PO columns will use. The bitset leg applies only when the
// transitive-closure bitset of every kept PO domain fits the default
// memory budget; otherwise the columnar loops fall back to interval or
// ordinal dominance tests per probe.
func kernelLabel(ds *core.Dataset, keptPO []int, noKernel bool) string {
	if noKernel {
		return "interval"
	}
	if len(keptPO) == 0 {
		return "columnar"
	}
	for _, d := range keptPO {
		if !ds.Domains[d].ClosureFits(poset.DefaultClosureBudget) {
			return "columnar"
		}
	}
	return "bitset+columnar"
}

// bitsetPOBScale discounts the cost model's per-PO-dimension dominance
// inflation when the bitset closure kernel applies: a t-preference test
// collapses from an interval probe to a single word test. Chosen in
// PR 8 from one kernel-vs-scalar run of BNL and MergeSurvivors at n=50k
// on the same configuration (the kernel path took 0.36–0.69 of the
// scalar path's time on a 1-CPU container); a rough prior like the rest.
const bitsetPOBScale = 0.25

// scaledPrior adapts an algorithm's static cost model to the selected
// dominance kernel.
func (p *Plan) scaledPrior(prior costPrior) costPrior {
	if p.Explain.Kernel == "bitset+columnar" {
		prior.POB *= bitsetPOBScale
	}
	return prior
}

// chooseAlgorithm fills p.algo, p.predBase and the explain candidate
// table.
func (p *Plan) chooseAlgorithm(learned *Learned, effPO int, hinted string) {
	if hinted != "" {
		a := core.MustLookup(hinted) // Validate resolved the name
		p.algo = a
		prior := p.scaledPrior(costPriors[a.Name()])
		p.prior = prior
		p.predBase = prior.modelSeconds(p.estRows, p.estSky, effPO)
		p.Explain.Algorithm = a.Name()
		p.Explain.Forced = true
		p.Explain.EstSeconds = p.predBase * learned.CostMultiplier(a.Name())
		return
	}
	var best core.Algorithm
	var bestPrior costPrior
	var bestEst, bestBase float64
	for _, a := range core.Algorithms() {
		if effPO > 0 && !a.Capabilities().POCapable {
			continue
		}
		prior := p.scaledPrior(costPriors[a.Name()])
		base := prior.modelSeconds(p.estRows, p.estSky, effPO)
		est := base * learned.CostMultiplier(a.Name())
		p.Explain.Candidates = append(p.Explain.Candidates, Candidate{Name: a.Name(), EstSeconds: est})
		if best == nil || est < bestEst {
			best, bestEst, bestBase, bestPrior = a, est, base, prior
		}
	}
	p.algo = best
	p.prior = bestPrior
	p.predBase = bestBase
	p.Explain.Algorithm = best.Name()
	p.Explain.EstSeconds = bestEst
}

// resolveSubspace expands a nil subspace to the identity dimension
// lists.
func resolveSubspace(s *Subspace, nTO, nPO int) (to, po []int) {
	if s == nil {
		to = make([]int, nTO)
		for i := range to {
			to[i] = i
		}
		po = make([]int, nPO)
		for i := range po {
			po[i] = i
		}
		return to, po
	}
	return append([]int(nil), s.TO...), append([]int(nil), s.PO...)
}

// allAntiMonotone proves (or refutes) that every predicate is closed
// under dominance: any row dominating a satisfying row also satisfies.
//
//   - A TO range is anti-monotone iff it has no lower bound: dominators
//     have values ≤ the satisfying row's (smaller is better), which can
//     escape below a lower bound but never above an upper one. Under the
//     ideal-point transform no TO range is: a dominator is closer to the
//     ideal, on either side of the bound.
//   - A PO value set is anti-monotone iff it is upward closed under the
//     table's preference order: for every allowed value, every value
//     t-preferred to it is allowed too. Checked exhaustively against
//     the domain (|In| × |domain| TPrefers probes on the precomputed
//     interval encoding).
func allAntiMonotone(ds *core.Dataset, q Query) (bool, string) {
	for i, pr := range q.Where {
		switch pr.Kind {
		case TORange:
			if q.IdealTransform() {
				return false, fmt.Sprintf("predicate %d bounds a column compared by distance to the ideal point", i)
			}
			if pr.HasLo {
				return false, fmt.Sprintf("predicate %d has a lower bound (a dominator may fall below it)", i)
			}
		case POIn:
			dom := ds.Domains[pr.Dim]
			allowed := make(map[int32]bool, len(pr.In))
			for _, v := range pr.In {
				allowed[v] = true
			}
			for _, v := range pr.In {
				for w := int32(0); int(w) < dom.Size(); w++ {
					if !allowed[w] && dom.TPrefers(w, v) {
						return false, fmt.Sprintf(
							"predicate %d: value %d is preferred to allowed value %d but excluded", i, w, v)
					}
				}
			}
		}
	}
	return true, ""
}

// antiMonotoneUsable gates the post-filter route: besides the proof,
// the cached/derived full skyline is full-dimensional, so a subspace
// query cannot use it.
func antiMonotoneUsable(q Query, antiMono bool) bool {
	return antiMono && q.Subspace == nil
}

// selectivity estimates the fraction of rows surviving the predicates,
// assuming per-column uniformity and independence across predicates.
func selectivity(stats *Stats, where []Predicate) float64 {
	sel := 1.0
	for _, pr := range where {
		switch pr.Kind {
		case TORange:
			if pr.Dim >= len(stats.TO) {
				continue
			}
			c := stats.TO[pr.Dim]
			span := float64(c.Max-c.Min) + 1
			if span <= 0 {
				continue
			}
			lo, hi := float64(c.Min), float64(c.Max)
			if pr.HasLo && float64(pr.Lo) > lo {
				lo = float64(pr.Lo)
			}
			if pr.HasHi && float64(pr.Hi) < hi {
				hi = float64(pr.Hi)
			}
			s := (hi - lo + 1) / span
			sel *= clamp01(s)
		case POIn:
			if pr.Dim >= len(stats.PO) {
				continue
			}
			size := stats.PO[pr.Dim].DomainSize
			if size > 0 {
				sel *= clamp01(float64(len(pr.In)) / float64(size))
			}
		}
	}
	return clamp01(sel)
}

// skylineFrac estimates |skyline|/n: the variant's observed EWMA when
// available, otherwise a correlation-sign default scaled by
// dimensionality. Each variant (kept-dimension set) learns its own
// fraction — a 2-dim subspace skyline and the full skyline of the same
// table differ by orders of magnitude, so sharing one EWMA across a
// mixed workload would misestimate both.
func skylineFrac(stats *Stats, learned *Learned, variant string, dims int) (float64, string) {
	if f, ok := learned.SkylineFrac(variant); ok {
		return clampFrac(f), "observed"
	}
	var f float64
	switch {
	case stats.CorrSign < -0.15:
		f = 0.10
	case stats.CorrSign > 0.15:
		f = 0.005
	default:
		f = 0.02
	}
	if dims > 2 {
		f *= 1 + 0.5*float64(dims-2)
	}
	return clampFrac(f), "correlation-default"
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func clampFrac(f float64) float64 {
	if f < 1e-4 {
		return 1e-4
	}
	if f > 1 {
		return 1
	}
	return f
}
