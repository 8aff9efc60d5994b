package plan

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/poset"
)

// ctxCheckEvery is how many loop iterations pass between cooperative
// context checks in the executor's scan loops.
const ctxCheckEvery = 4096

// Run executes the plan on ds, records the observed skyline fraction
// back into env.Learned, and fills the Explain's observed fields. The
// dataset must use the table layout (ds.Pts[i].ID == i), which Table
// datasets always do; result IDs are row indexes of that table.
//
// Cancellation is cooperative: ctx is checked between pipeline stages,
// periodically inside the executor's own scan loops, and by the chosen
// algorithm every few thousand rows of its scan (core.Options.Ctx).
func (p *Plan) Run(ctx context.Context, ds *core.Dataset, env Env) (*core.Result, error) {
	ds, env = p.Query.scope(ds, env)
	return p.run(ctx, ds, env)
}

// run is Run over an already scoped ds and env.
func (p *Plan) run(ctx context.Context, ds *core.Dataset, env Env) (*core.Result, error) {
	start := time.Now()
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	cache := env.Cache

	var res *core.Result
	observedRows := 0 // rows the executor actually fed an algorithm
	switch {
	case p.cached != nil:
		// Cache routing: the snapshot's full skyline, filtered when the
		// (proved anti-monotone) predicates demand it. No index is
		// touched, so no rows are processed.
		ids := p.cached
		if p.route == RoutePostFilter {
			ids = p.filterIDs(ds, ids)
		}
		res = &core.Result{SkylineIDs: append([]int32(nil), ids...), FromCache: true}
	case p.earlyExit:
		// Unranked top-k: the progressive scan's first K accepted rows,
		// delivered to nobody.
		var err error
		if res, err = p.streamCursor(ctx, ds, env, func(StreamRow) error { return nil }, start); err != nil {
			return nil, err
		}
		observedRows = p.cursorRows
	default:
		eff, err := p.effective(ctx, ds)
		if err != nil {
			return nil, err
		}
		observedRows = len(eff.Pts)
		algo := p.algo
		opt := core.Options{NoKernel: p.Query.Hints.NoKernel, Ctx: ctx}
		if p.shards > 0 {
			algo = core.Parallel(algo)
			opt.Parallelism = p.shards
		}
		if p.shards == 0 && algo.Name() == "sfs" {
			// Sequential SFS scans the presorted order, which may be
			// resident on the snapshot.
			res, err = p.scan(ctx, ds, eff, env, nil)
		} else {
			res, err = algo.Run(eff, opt)
		}
		if err != nil {
			return nil, err
		}
		// Feedback: skyline fractions are learned per variant
		// (kept-dimension key), so subspace runs feed their own EWMA
		// rather than dragging the full-dimensional estimate toward
		// ~1/n; filtered runs feed nothing — their fraction conflates
		// selectivity with skyline density.
		if p.route == RouteDirect {
			env.Learned.ObserveSkyline(p.baseVariant, len(eff.Pts), len(res.SkylineIDs))
		}
		if p.route == RoutePostFilter {
			if cache != nil {
				cache.PutFull(append([]int32(nil), res.SkylineIDs...))
			}
			res.SkylineIDs = p.filterIDs(ds, res.SkylineIDs)
		} else if p.route == RouteDirect {
			p.memoise(cache, res.SkylineIDs)
		}
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}

	// Restriction stage: the F-dominance restricted skyline is a subset
	// of the skyline (plain dominance implies F-dominance), so whatever
	// route produced the skyline — cached, cursor, cold — the weight
	// constraint eliminates among its members afterwards. The restricted
	// result memoises under its own weight-suffixed key; a hit skipped
	// the elimination already.
	if p.fvtx != nil && !p.cachedRestricted {
		ids, err := p.restrictIDs(ctx, ds, res.SkylineIDs)
		if err != nil {
			return nil, err
		}
		if p.route == RouteDirect && cache != nil {
			cache.PutSubspace(p.variant, append([]int32(nil), ids...))
		}
		if p.route == RouteDirect && !res.FromCache {
			env.Learned.ObserveSkyline(p.variant, observedRows, len(ids))
		}
		res.SkylineIDs = ids
	}

	if p.Query.TopK > 0 {
		ids, err := p.rankAndTruncate(ctx, ds, env, res.SkylineIDs)
		if err != nil {
			return nil, err
		}
		res.SkylineIDs = ids
		trimEmissions(res)
	}

	p.Explain.ObservedSeconds = time.Since(start).Seconds()
	p.Explain.ObservedRows = observedRows
	p.Explain.ObservedSkyline = len(res.SkylineIDs)
	return res, nil
}

// trimEmissions keeps only the emission records of rows in a top-k
// result. Unranked truncation keeps an emission-order prefix; a ranked
// one keeps a scattered subset, and a post-filter cursor run certifies
// rows the per-row filter then drops, so a prefix cut would report
// emissions for rows not in the result.
func trimEmissions(res *core.Result) {
	if len(res.Metrics.Emissions) == 0 {
		return
	}
	kept := make(map[int32]bool, len(res.SkylineIDs))
	for _, id := range res.SkylineIDs {
		kept[id] = true
	}
	out := res.Metrics.Emissions[:0]
	for _, e := range res.Metrics.Emissions {
		if kept[e.ID] {
			out = append(out, e)
		}
	}
	res.Metrics.Emissions = out
}

// memoise stores the unrestricted skyline a direct-route run produced
// under the key its shape reads back: the full entry, or the subspace's.
func (p *Plan) memoise(cache Cache, skyline []int32) {
	if cache == nil {
		return
	}
	ids := append([]int32(nil), skyline...)
	if p.Query.Subspace == nil {
		cache.PutFull(ids)
	} else {
		cache.PutSubspace(p.baseVariant, ids)
	}
}

// effective materializes the dataset the algorithm runs on: predicate
// filtering (push-down route), subspace projection and the ideal-point
// transform, with original row ids preserved so results need no mapping
// back.
func (p *Plan) effective(ctx context.Context, ds *core.Dataset) (*core.Dataset, error) {
	project := p.Query.Subspace != nil || p.Query.IdealTransform()
	filter := p.route == RoutePushdown
	if !project && !filter {
		return ds, nil
	}
	eff := &core.Dataset{Domains: keptPODomains(ds, p.keptPO)}
	if !project {
		eff.Domains = ds.Domains
	}
	for i := range ds.Pts {
		if i%ctxCheckEvery == 0 {
			if err := ctxErr(ctx); err != nil {
				return nil, err
			}
		}
		pt := &ds.Pts[i]
		if filter && !p.matchesAll(pt) {
			continue
		}
		if !project {
			eff.Pts = append(eff.Pts, *pt)
			continue
		}
		eff.Pts = append(eff.Pts, p.projectPoint(pt))
	}
	return eff, nil
}

// matchesAll reports whether a row satisfies every predicate.
func (p *Plan) matchesAll(pt *core.Point) bool {
	return matchesAllPreds(p.Query.Where, pt)
}

// filterIDs keeps the result ids whose rows satisfy the predicates —
// the post-filter route's final pass.
func (p *Plan) filterIDs(ds *core.Dataset, ids []int32) []int32 {
	out := make([]int32, 0, len(ids))
	for _, id := range ids {
		if p.matchesAll(&ds.Pts[id]) {
			out = append(out, id)
		}
	}
	return out
}

// rankAndTruncate orders the skyline by the query's rank and keeps the
// best K. RankNone keeps the first K in emission order; everything else
// dispatches through LookupRanker and records where the scores came
// from (index / memo / cold) in the explain output.
func (p *Plan) rankAndTruncate(ctx context.Context, ds *core.Dataset, env Env, ids []int32) ([]int32, error) {
	k := p.Query.TopK
	if p.Query.Rank == RankNone {
		if k < len(ids) {
			ids = ids[:k]
		}
		return ids, nil
	}
	r, ok := LookupRanker(string(p.Query.Rank))
	if !ok {
		return nil, fmt.Errorf("plan: unknown rank %q (have: %s)", p.Query.Rank, quotedRankerNames())
	}
	sc := p.scoreContext(ds, env)
	ranked, fromIndex, err := r.Rank(ctx, sc, ids, k)
	if err != nil {
		return nil, err
	}
	switch {
	case fromIndex:
		p.Explain.RankedFrom = "index"
		p.Explain.RouteReason = "ranked top-k scored from the score index"
	case p.cached != nil:
		p.Explain.RankedFrom = "memo"
		p.Explain.RouteReason = "ranked top-k over the memoised skyline"
	default:
		p.Explain.RankedFrom = "cold"
	}
	return ranked, nil
}

// scoreContext assembles what the ranker sees. The score index applies
// only to the full-table shape — no projection, no filter, no
// restriction — because the index is built over full-dimension
// dominance on all rows; any other shape scores cold.
func (p *Plan) scoreContext(ds *core.Dataset, env Env) *ScoreContext {
	sc := &ScoreContext{DS: ds, Query: &p.Query, KeptTO: p.keptTO, KeptPO: p.keptPO, Algo: p.algo}
	if p.Query.Subspace == nil && len(p.Query.Where) == 0 && len(p.Query.FWeights) == 0 {
		if sic, ok := env.Cache.(ScoreIndexCache); ok {
			if ix, ok := sic.GetScoreIndex(); ok {
				sc.Index = ix
			}
			sc.StoreIndex = sic.PutScoreIndex
		}
	}
	return sc
}

// restrictIDs eliminates the skyline members F-dominated by another
// member under the query's weight-constraint family (see fdom.go for
// why member-only elimination is exact).
func (p *Plan) restrictIDs(ctx context.Context, ds *core.Dataset, ids []int32) ([]int32, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	pts := make([]core.Point, len(ids))
	for i, id := range ids {
		pts[i] = p.projectPoint(&ds.Pts[id])
	}
	doms := keptPODomains(ds, p.keptPO)
	keep := FDomSurvivors(doms, p.fvtx, pts)
	out := make([]int32, len(keep))
	for i, j := range keep {
		out[i] = ids[j]
	}
	return out, nil
}

// projectPoint maps a full-dimensional row into the kept dimensions —
// and, under the ideal-point transform, each kept TO value v to
// |v − ideal|, the coordinate fully dynamic dominance is tested on.
func (p *Plan) projectPoint(pt *core.Point) core.Point {
	np := projectInto(pt, p.keptTO, p.keptPO)
	if p.Query.IdealTransform() {
		for j, d := range p.keptTO {
			if np.TO[j] -= int32(p.Query.Ideal[d]); np.TO[j] < 0 {
				np.TO[j] = -np.TO[j]
			}
		}
	}
	return np
}

// keptPODomains selects the kept PO columns' domains in subspace order.
func keptPODomains(ds *core.Dataset, keptPO []int) []*poset.Domain {
	doms := make([]*poset.Domain, len(keptPO))
	for j, d := range keptPO {
		doms[j] = ds.Domains[d]
	}
	return doms
}

func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("plan: query canceled: %w", err)
	}
	return nil
}
