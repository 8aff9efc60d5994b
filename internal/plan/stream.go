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
// from query start to certification. Key is the row's SFS presort key
// on the progressive unranked path — Σ TO + Σ topological ordinal of
// the row, non-decreasing across a stream (ties in ascending id), with
// a strict t-dominator always holding a strictly smaller key — and nil
// on replayed (buffered or rank-ordered) streams, whose emission order
// carries no such bound.
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
//     unranked top-k) run SFS's scan over the effective dataset in its
//     presorted order — the snapshot's resident order for the table's
//     own rows, a per-query sort after push-down filtering or
//     projection — with post-filter predicates applied per accepted
//     row, and emit each accepted row immediately: in that order a row
//     that survives the scan is final. An unranked top-k stops the scan
//     after K emissions, so a first-K stream is a prefix of the full
//     stream.
//   - Score-threshold top-k: a ranking with the StreamBounder
//     capability (origin-ideal today) collects the scan's rows only
//     until the K-th best score provably beats every later row (the
//     next row's key minus the ranker's slack), then emits the top K in
//     rank order — early termination without scanning the full skyline.
//   - Buffered fallback: everything else (cache hits, forced algorithms
//     other than sfs, forced parallelism, restricted skylines, and
//     rankings without a sound streaming bound) runs Run and replays
//     the finished rows through emit, so the wire protocol is uniform
//     even when progressiveness is impossible.
//
// The scan polls ctx every few thousand rows and before each emission.
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
		len(p.Query.FWeights) == 0 && (hinted == "" || hinted == "sfs")

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

	// The progressive paths run the sequential scan regardless of the
	// buffered plan's algorithm and parallelism choice — reflect that in
	// the explain output.
	p.explainCursor()
	p.Explain.ObservedSeconds = time.Since(start).Seconds()
	p.Explain.ObservedRows = p.cursorRows
	p.Explain.ObservedSkyline = len(res.SkylineIDs)
	return res, nil
}

// scan runs SFS's scan (core.ScanSorted) over eff, the effective
// dataset of a plan on ds, handing emit (nil for none) each accepted
// row. When eff is the table's own dataset (no projection, no push-down
// filter) the scan walks env's snapshot-resident order; any other shape
// sorts its own rows, as SFS does (after the elimination filter when eff
// has no PO column).
func (p *Plan) scan(ctx context.Context, ds, eff *core.Dataset, env Env, emit func(id int32, key, bound int64) bool) (*core.Result, error) {
	p.Explain.CursorIndex = "built"
	var order []int32
	if eff == ds && env.Order != nil {
		var resident bool
		if order, resident = env.Order(); resident {
			p.Explain.CursorIndex = "resident"
		}
	}
	res := core.ScanSorted(eff, order, core.Options{NoKernel: p.Query.Hints.NoKernel, Ctx: ctx}, emit)
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	return res, nil
}

// scanStream is the scan both progressive shapes share: it hands take
// every accepted row of the plan's effective dataset that passes the
// per-row post-filter, with its key and the bound on every later row's
// key (core.ScanSorted). take returning false or an error, or ctx
// ending, stops the scan; the error is returned.
func (p *Plan) scanStream(ctx context.Context, ds *core.Dataset, env Env, take func(id int32, key, bound int64) (bool, error)) (*core.Result, error) {
	eff, err := p.effective(ctx, ds)
	if err != nil {
		return nil, err
	}
	p.cursorRows = len(eff.Pts)
	postFilter := p.route == RoutePostFilter
	var stop error
	res, err := p.scan(ctx, ds, eff, env, func(id int32, key, bound int64) bool {
		if stop = ctxErr(ctx); stop != nil {
			return false
		}
		if postFilter && !p.matchesAll(&ds.Pts[id]) {
			return true
		}
		var more bool
		more, stop = take(id, key, bound)
		return more && stop == nil
	})
	if stop != nil {
		return nil, stop
	}
	return res, err
}

// streamCursor is the progressive unranked path: every accepted row
// that survives the per-row post-filter is emitted immediately; TopK > 0
// stops after K emissions.
func (p *Plan) streamCursor(ctx context.Context, ds *core.Dataset, env Env, emit func(StreamRow) error, start time.Time) (*core.Result, error) {
	k := p.Query.TopK
	var ids []int32
	scanned, err := p.scanStream(ctx, ds, env, func(id int32, key, _ int64) (bool, error) {
		ids = append(ids, id)
		if err := emit(StreamRow{ID: id, Index: len(ids) - 1, Elapsed: time.Since(start), Key: &key}); err != nil {
			return false, err
		}
		return k == 0 || len(ids) < k, nil
	})
	if err != nil {
		return nil, err
	}
	// A full unranked enumeration produced the exact skyline the
	// buffered route would have cached — store it so the stream warms
	// the same memo. Early-stopped or canceled runs store nothing.
	if k == 0 && p.route == RouteDirect {
		p.memoise(env.Cache, ids)
	}
	return &core.Result{SkylineIDs: ids, Metrics: scanned.Metrics}, nil
}

// streamThresholdTopK answers a ranked top-k through the scan with a
// sound early stop supplied by the ranking's StreamBounder capability:
// every later row's score is bounded below by the next row's key
// (Σ kept TO + Σ topological ordinal) minus the ranker's slack — for
// the origin-ideal ranking, an ordinal never undershoots its value's
// depth, so key − Σ(|domain|−1) ≤ score. Once K collected scores beat
// that bound strictly, no later row can displace them (nor tie into a
// different id order), and the scan stops without enumerating the rest
// of the skyline.
func (p *Plan) streamThresholdTopK(ctx context.Context, ds *core.Dataset, env Env, emit func(StreamRow) error, start time.Time, score func(pt *core.Point) float64, slack int64) (*core.Result, error) {
	k := p.Query.TopK
	type scored struct {
		id    int32
		score float64
	}
	var cands []scored
	best := make([]float64, 0, k) // k smallest scores so far, ascending
	scanned, err := p.scanStream(ctx, ds, env, func(id int32, _, bound int64) (bool, error) {
		s := score(&ds.Pts[id])
		cands = append(cands, scored{id: id, score: s})
		if i := sort.SearchFloat64s(best, s); i < k {
			if len(best) < k {
				best = append(best, 0)
			}
			copy(best[i+1:], best[i:])
			best[i] = s
		}
		return len(best) < k || best[k-1] >= float64(bound-slack), nil
	})
	if err != nil {
		return nil, err
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
	res := &core.Result{Metrics: scanned.Metrics}
	for i, c := range cands {
		res.SkylineIDs = append(res.SkylineIDs, c.id)
		if err := emit(StreamRow{ID: c.id, Index: i, Elapsed: time.Since(start)}); err != nil {
			return nil, err
		}
	}
	return res, nil
}
