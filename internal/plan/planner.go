package plan

import (
	"fmt"
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

// Env is the planning context: an optional full-skyline cache and the
// table's resident scan order. Either may be nil — no cache routing,
// every SFS scan sorts its own rows.
type Env struct {
	// Stats and Learned are inert: nothing in this package reads them.
	// They stay declared only for bench/ladder.go:129 and
	// bench/probe.go:44, which still set them.
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
// ideal-point transform — keeps the rows only: no resident scan order
// or score index (both encode the table's dominance), and the cache
// through ordersView — not at all under the transform, whose
// coordinates no entry describes. q must have passed Validate on ds.
func (q *Query) scope(ds *core.Dataset, env Env) (*core.Dataset, Env) {
	if q.Hints.NoCache {
		env.Cache = nil
	}
	if q.Orders == nil && !q.IdealTransform() {
		return ds, env
	}
	var scoped Env
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

// Explain is the JSON-ready account of what a plan did, attached to
// query responses and printed by the CLIs' -explain flags. The executor
// fills in Parallelism and the Observed* fields as it runs.
type Explain struct {
	Variant   string `json:"variant"`
	Algorithm string `json:"algorithm"`
	Forced    bool   `json:"forced,omitempty"`
	// Parallelism is the partition-and-merge shard count the run used
	// (0: sequential).
	Parallelism  int    `json:"parallelism,omitempty"`
	Route        Route  `json:"route"`
	RouteReason  string `json:"routeReason,omitempty"`
	AntiMonotone bool   `json:"antiMonotone,omitempty"`
	CacheHit     bool   `json:"cacheHit,omitempty"`
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
	// algorithm (0 on cache hits).
	ObservedSeconds float64 `json:"observedSeconds"`
	ObservedRows    int     `json:"observedRows"`
	ObservedSkyline int     `json:"observedSkyline"`
}

// Plan is a physical execution plan: the logical query plus every
// decision the planner made. Plans are single-use — Run fills the
// Explain's observed fields.
type Plan struct {
	Query   Query
	Explain Explain

	algo      core.Algorithm
	route     Route
	earlyExit bool    // RouteCursor: stop the progressive scan after TopK
	cached    []int32 // full or subspace skyline served from Env.Cache, nil on miss
	keptTO    []int   // resolved subspace (identity when Query.Subspace == nil)
	keptPO    []int
	// baseVariant is the kept-dimension key (SubspaceKey) — the memo
	// key of the *unrestricted* skyline this query shape derives from;
	// variant appends the weight-constraint suffix for restricted
	// queries and equals baseVariant otherwise. Unrestricted cache
	// writes use baseVariant, while the restricted result memoises
	// under variant.
	baseVariant string
	variant     string
	fvtx        [][]float64 // restriction vertices (kept order), nil when unrestricted
	// cachedRestricted marks p.cached as an already-restricted memo
	// entry — the executor's restriction stage is skipped.
	cachedRestricted bool

	cursorRows int // rows the cursor route scanned (observed-rows reporting)
}

// New plans q against a table's rows ds and derived state env (scope
// decides what a query that brings its own dominance sees of them). The
// plan is ready to Run with the same ds and env; its Explain describes
// every decision (before observation fields).
func New(ds *core.Dataset, q Query, env Env) (*Plan, error) {
	if err := q.Validate(ds.NumTO(), ds.NumPO(), domainSizes(ds)); err != nil {
		return nil, err
	}
	ds, env = q.scope(ds, env)

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
	// which elimination path the run will take.
	p.Explain.Kernel = kernelLabel(ds, p.keptPO, q.Hints.NoKernel)

	// Algorithm: SFS's scan, unless the query forces one (Validate
	// resolved the name).
	p.algo = core.MustLookup("sfs")
	if hinted != "" {
		p.algo = core.MustLookup(hinted)
		p.Explain.Forced = true
	}
	p.Explain.Algorithm = p.algo.Name()

	// Parallelism is the executor's choice, from the rows it actually
	// has (see shardCount); only a forced count is known up front.
	p.Explain.Route = p.route
	p.Explain.Parallelism = max(q.Hints.Parallelism, 0)
	if p.earlyExit {
		p.explainCursor()
	}
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
