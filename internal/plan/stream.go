package plan

import (
	"context"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
)

// StreamRow is one progressively delivered result row: the row id, its
// 0-based emission index in the stream, and the elapsed wall-clock time
// from query start to certification. Key is the cursor's L1 mindist key
// of the emission on the progressive unranked path — non-decreasing
// across a stream, with a strict t-dominator always holding a strictly
// smaller key — and nil on replayed (buffered or rank-ordered) streams,
// whose emission order carries no such bound.
type StreamRow struct {
	ID      int32
	Index   int
	Elapsed time.Duration
	Key     *int64
}

// RunStream executes the plan like Run, but delivers result rows through
// emit as soon as they are certified instead of materializing the whole
// result first. An emit error aborts the run and is returned verbatim.
//
// Three execution shapes, chosen per plan:
//
//   - Progressive: unranked queries (full, subspace, constrained, and
//     unranked top-k) run the sTSS cursor over the effective dataset —
//     pushdown filtering and projection applied before the index build,
//     post-filter predicates applied per emitted row — and emit each
//     certified row immediately. An unranked top-k stops the traversal
//     after K emissions. The stream order is the cursor's non-decreasing
//     mindist order, so a first-K stream is a prefix of the full stream.
//   - Score-threshold top-k: a ranking with the StreamBounder
//     capability (origin-ideal today) collects cursor emissions only
//     until the K-th best score provably beats every future emission
//     (cursor heap bound minus the ranker's slack), then emits the top
//     K in rank order — early termination without scanning the full
//     skyline.
//   - Buffered fallback: everything else (cache hits, forced non-sTSS
//     algorithms, forced parallelism, restricted skylines, and
//     rankings without a sound streaming bound) runs Run and replays
//     the finished rows through emit, so the wire protocol is uniform
//     even when progressiveness is impossible.
//
// Like the cursor route in Run, progressive runs feed no learned
// feedback; a fully exhausted unranked enumeration fills the result
// cache exactly as the buffered path would, and a canceled run stores
// nothing.
func (p *Plan) RunStream(ctx context.Context, ds *core.Dataset, env Env, emit func(StreamRow) error) (*core.Result, error) {
	start := time.Now()
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	ds, env = p.Query.scope(ds, env)
	hinted := strings.ToLower(p.Query.Hints.Algorithm)
	cursorOK := p.cached == nil && p.Query.Hints.Parallelism <= 0 &&
		len(p.Query.FWeights) == 0 && (hinted == "" || hinted == "stss")

	// A ranked stream is progressive only when the ranking provides a
	// sound bound on future emissions (StreamBounder) and accepts this
	// query's shape.
	var boundScore func(pt *core.Point) float64
	var boundSlack int64
	if cursorOK && p.Query.TopK > 0 && p.Query.Rank != RankNone {
		if r, ok := LookupRanker(string(p.Query.Rank)); ok {
			if sb, ok := r.(StreamBounder); ok {
				boundScore, boundSlack, ok = sb.StreamScorer(p.scoreContext(ds, env))
				if !ok {
					boundScore = nil
				}
			}
		}
	}

	var res *core.Result
	var err error
	switch {
	case cursorOK && p.Query.Rank == RankNone:
		res, err = p.streamCursor(ctx, ds, env, emit, start)
	case boundScore != nil:
		res, err = p.streamThresholdTopK(ctx, ds, env, emit, start, boundScore, boundSlack)
	default:
		if res, err = p.run(ctx, ds, env); err == nil {
			for i, id := range res.SkylineIDs {
				if err := emit(StreamRow{ID: id, Index: i, Elapsed: time.Since(start)}); err != nil {
					return nil, err
				}
			}
		}
		return res, err
	}
	if err != nil {
		return nil, err
	}

	if p.Query.TopK > 0 {
		trimEmissions(res)
	}

	// The progressive paths run the sequential sTSS cursor regardless of
	// the buffered plan's algorithm and parallelism choice — reflect that
	// in the explain output.
	p.explainCursor()
	p.Explain.ObservedSeconds = time.Since(start).Seconds()
	p.Explain.ObservedRows = p.cursorRows
	p.Explain.ObservedSkyline = len(res.SkylineIDs)
	return res, nil
}

// openCursor starts an sTSS cursor over the plan's effective dataset.
func (p *Plan) openCursor(ctx context.Context, ds *core.Dataset, env Env) (*core.Cursor, error) {
	eff, err := p.effective(ctx, ds)
	if err != nil {
		return nil, err
	}
	p.cursorRows = len(eff.Pts)
	return p.cursorOver(ds, eff, env), nil
}

// cursorOver starts an sTSS cursor over eff, the effective dataset of a
// plan on ds. When eff is the table's own dataset (no projection, no
// push-down filter) the cursor traverses env's snapshot-resident index;
// any other shape indexes different rows or coordinates and bulk-loads
// its own.
func (p *Plan) cursorOver(ds, eff *core.Dataset, env Env) *core.Cursor {
	opt := core.Options{NoKernel: p.Query.Hints.NoKernel}
	p.Explain.CursorIndex = "built"
	if eff != ds || env.STSSIndex == nil {
		return core.NewSTSSCursor(eff, opt)
	}
	ix, resident := env.STSSIndex()
	if resident {
		p.Explain.CursorIndex = "resident"
	}
	return ix.Cursor(opt)
}

// streamCursor is the progressive unranked path: every certified cursor
// emission that survives the per-row post-filter is emitted immediately;
// TopK > 0 stops after K emissions.
func (p *Plan) streamCursor(ctx context.Context, ds *core.Dataset, env Env, emit func(StreamRow) error, start time.Time) (*core.Result, error) {
	cur, err := p.openCursor(ctx, ds, env)
	if err != nil {
		return nil, err
	}
	res := &core.Result{}
	postFilter := p.route == RoutePostFilter
	k := p.Query.TopK
	for k == 0 || len(res.SkylineIDs) < k {
		// The cursor's own cooperative check fires every dynCtxCheckEvery
		// heap steps; an extra per-emission check keeps small groups — where
		// a whole query fits under that cadence — responsive to disconnects.
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		id, ok, err := cur.NextContext(ctx)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if postFilter && !p.matchesAll(&ds.Pts[id]) {
			continue
		}
		res.SkylineIDs = append(res.SkylineIDs, id)
		key := cur.LastKey()
		if err := emit(StreamRow{ID: id, Index: len(res.SkylineIDs) - 1, Elapsed: time.Since(start), Key: &key}); err != nil {
			return nil, err
		}
	}
	res.Metrics = cur.Metrics()
	// A fully exhausted unranked enumeration produced the exact skyline
	// the buffered route would have cached — store it so the stream warms
	// the same memo. Early-stopped or canceled runs store nothing.
	if k == 0 && cur.Exhausted() && p.route == RouteDirect {
		p.memoise(env.Cache, res.SkylineIDs)
	}
	return res, nil
}

// streamThresholdTopK answers a ranked top-k through the cursor with a
// sound early stop supplied by the ranking's StreamBounder capability:
// every future emission's score is bounded below by the cursor's heap
// bound (Σ kept TO + Σ topological ordinal of the next unexamined
// entry) minus the ranker's slack — for the origin-ideal ranking, an
// ordinal never undershoots its value's depth, so key − Σ(|domain|−1) ≤
// score. Once K collected scores beat that bound strictly, no future
// emission can displace them (nor tie into a different id order), and
// the traversal stops without enumerating the rest of the skyline.
func (p *Plan) streamThresholdTopK(ctx context.Context, ds *core.Dataset, env Env, emit func(StreamRow) error, start time.Time, score func(pt *core.Point) float64, slack int64) (*core.Result, error) {
	cur, err := p.openCursor(ctx, ds, env)
	if err != nil {
		return nil, err
	}
	k := p.Query.TopK
	postFilter := p.route == RoutePostFilter

	type scored struct {
		id    int32
		score float64
	}
	var cands []scored
	best := make([]float64, 0, k) // k smallest scores so far, ascending
	for {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		id, ok, err := cur.NextContext(ctx)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if postFilter && !p.matchesAll(&ds.Pts[id]) {
			continue
		}
		s := score(&ds.Pts[id])
		cands = append(cands, scored{id: id, score: s})
		if i := sort.SearchFloat64s(best, s); i < k {
			if len(best) < k {
				best = append(best, 0)
			}
			copy(best[i+1:], best[i:])
			best[i] = s
		}
		if len(best) == k {
			if bound, ok := cur.PeekBound(); !ok || best[k-1] < float64(bound-slack) {
				break
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score < cands[j].score
		}
		return cands[i].id < cands[j].id
	})
	if len(cands) > k {
		cands = cands[:k]
	}
	res := &core.Result{Metrics: cur.Metrics()}
	for i, c := range cands {
		res.SkylineIDs = append(res.SkylineIDs, c.id)
		if err := emit(StreamRow{ID: c.id, Index: i, Elapsed: time.Since(start)}); err != nil {
			return nil, err
		}
	}
	return res, nil
}
