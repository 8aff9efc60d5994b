package plan

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/poset"
)

func init() {
	RegisterRanker(dpidpRanker{})
	RegisterRanker(layerRanker{})
}

// dpidpRanker is RankDPIDP — the dominance-potential / inverse-
// dominance-partition score: each row t of R dominated by exactly k
// skyline members contributes 1/k to each of those k members, so a
// member scores high by "explaining" rows few other members cover.
// Members order descending by score (ascending after negation, matching
// the shared rank sort).
//
// Scores are carried as integer k-histograms everywhere (executor,
// score index, oracle, per-shard partials) and materialized by one
// shared ascending-k summation (core.DPIDPScoreFromHist), so the
// index-backed, cold-computed and cluster-combined floats are
// bit-identical.
type dpidpRanker struct{}

func (dpidpRanker) Name() string { return string(RankDPIDP) }

func (dpidpRanker) Rank(ctx context.Context, sc *ScoreContext, ids []int32, k int) ([]int32, bool, error) {
	if sc.Index != nil {
		if scores, ok := indexScores(sc.Index, ids); ok {
			return sortByScore(ids, scores, k), true, nil
		}
		// A member miss means the index describes a different skyline
		// than the one being ranked — fall through to the cold scan
		// rather than serve wrong scores.
	}
	hists, err := dpidpHists(ctx, sc, memberPoints(sc.DS, ids))
	if err != nil {
		return nil, false, err
	}
	scores := make(map[int32]float64, len(ids))
	for i, id := range ids {
		scores[id] = -core.DPIDPScoreFromHist(hists[i])
	}
	if sc.StoreIndex != nil {
		sc.StoreIndex(core.NewScoreIndex(ids, hists))
	}
	return sortByScore(ids, scores, k), false, nil
}

func (dpidpRanker) OracleRank(oc *OracleContext, sky []int32, k int) []int32 {
	rows := oc.Rows
	byID := make(map[int32]*core.Point, len(rows))
	for i := range rows {
		byID[rows[i].ID] = &rows[i]
	}
	// Per row of R: how many skyline members dominate it, and which.
	hists := make(map[int32]map[int32]int64, len(sky))
	var dom []int32
	for i := range rows {
		dom = dom[:0]
		for _, id := range sky {
			if id == rows[i].ID {
				continue
			}
			if core.DominatesUnder(oc.Doms, byID[id], &rows[i]) {
				dom = append(dom, id)
			}
		}
		if len(dom) == 0 {
			continue
		}
		kk := int32(len(dom))
		for _, id := range dom {
			h := hists[id]
			if h == nil {
				h = map[int32]int64{}
				hists[id] = h
			}
			h[kk]++
		}
	}
	scores := make(map[int32]float64, len(sky))
	for _, id := range sky {
		scores[id] = -core.DPIDPScoreFromHist(hists[id])
	}
	return sortByScore(sky, scores, k)
}

// Partials scores the gathered candidates against this shard's local
// rows: per candidate, the k-histogram of local rows it dominates,
// where k counts dominators among all candidates (the global skyline) —
// additive across shards because each local row contributes to exactly
// one shard's histograms with the same global k.
func (dpidpRanker) Partials(ctx context.Context, ds *core.Dataset, q Query, cands []core.Point) (Partials, error) {
	sc, err := candidateContext(ds, &q, cands)
	if err != nil {
		return Partials{}, err
	}
	hists, err := dpidpHists(ctx, sc, cands)
	if err != nil {
		return Partials{}, err
	}
	out := Partials{Hists: make([]KHist, len(cands))}
	for j, h := range hists {
		out.Hists[j] = histToWire(h)
	}
	return out, nil
}

func (dpidpRanker) CombinePartials(shards []Partials, n int) (Partials, []float64, error) {
	merged := make([]map[int32]int64, n)
	for i := range merged {
		merged[i] = map[int32]int64{}
	}
	for _, p := range shards {
		if len(p.Hists) != n {
			return Partials{}, nil, fmt.Errorf("shard returned %d dp-idp histograms for %d candidates", len(p.Hists), n)
		}
		for i, h := range p.Hists {
			if len(h.Ks) != len(h.Counts) {
				return Partials{}, nil, fmt.Errorf("shard histogram %d has %d ks but %d counts", i, len(h.Ks), len(h.Counts))
			}
			for x, k := range h.Ks {
				merged[i][k] += h.Counts[x]
			}
		}
	}
	out := Partials{Hists: make([]KHist, n)}
	scores := make([]float64, n)
	for i, h := range merged {
		out.Hists[i] = histToWire(h)
		scores[i] = -core.DPIDPScoreFromHist(h)
	}
	return out, scores, nil
}

// RankCostSeconds: the same dominator scan domcount runs.
func (dpidpRanker) RankCostSeconds(n, m, dims, k int) float64 {
	return domScanCostSeconds(n, m, dims)
}

// indexScores serves the ranked ids from the maintained index's
// memoized scores, found by binary search over its ascending members; a
// single missing member declines the whole lookup.
func indexScores(ix *core.ScoreIndex, ids []int32) (map[int32]float64, bool) {
	members, all := ix.Members(), ix.Scores()
	scores := make(map[int32]float64, len(ids))
	for _, id := range ids {
		i, ok := slices.BinarySearch(members, id)
		if !ok {
			return nil, false
		}
		scores[id] = -all[i]
	}
	return scores, true
}

// dpidpHists computes each member's k-histogram against R (the
// predicate-filtered table in the kept dimensions), nil for members
// that dominate nothing. For the index-eligible full-table shape it
// produces exactly what core.BuildScoreIndex would — same integers,
// same member set — so the result doubles as a freshly built index.
func dpidpHists(ctx context.Context, sc *ScoreContext, members []core.Point) ([]map[int32]int64, error) {
	hists := make([]map[int32]int64, len(members))
	err := scanDominators(ctx, sc, members, func(doms []int32) {
		for _, j := range doms {
			if hists[j] == nil {
				hists[j] = map[int32]int64{}
			}
			hists[j][int32(len(doms))]++
		}
	})
	return hists, err
}

// histToWire flattens a k-histogram into ascending-k parallel arrays.
func histToWire(h map[int32]int64) KHist {
	if len(h) == 0 {
		return KHist{}
	}
	ks := make([]int32, 0, len(h))
	for k := range h {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	out := KHist{Ks: ks, Counts: make([]int64, len(ks))}
	for i, k := range ks {
		out.Counts[i] = h[k]
	}
	return out
}

// layerRanker is RankLayer: iterated-skyline depth. TopK is a depth
// bound, not a row count — the result is every row of R in skyline
// layers 1..K (layer 1 = the skyline, layer i = the skyline of what
// remains), ordered by (layer, id). Depth-bound semantics make the
// distributed merge exact: a row's global layer never exceeds K unless
// its local layer already does, so the union of shard-local layer-≤K
// results contains every chain needed to re-derive global layers.
type layerRanker struct{}

func (layerRanker) Name() string { return string(RankLayer) }

func (layerRanker) Rank(ctx context.Context, sc *ScoreContext, ids []int32, k int) ([]int32, bool, error) {
	rows, err := filteredProjectedRows(ctx, sc.DS, sc.Query, sc.KeptTO, sc.KeptPO)
	if err != nil {
		return nil, false, err
	}
	doms := keptPODomains(sc.DS, sc.KeptPO)
	layers, err := peelFrom(ctx, doms, rows, ids, k, sc)
	if err != nil {
		return nil, false, err
	}
	return layerOrder(rows, layers), false, nil
}

// peelFrom assigns layers 1..k over rows. Layer 1 is the skyline the
// executor already computed (memo-served when the table is warm);
// deeper layers peel the residual with the plan's cost-chosen
// algorithm — the same elimination a cold query would run, minus the
// re-plan and table rebuild a client peeling by hand pays per layer.
// The scalar reference path (NoKernel) stays on core.LayersUnder for
// the differential harnesses.
func peelFrom(ctx context.Context, doms []*poset.Domain, rows []core.Point, sky []int32, k int, sc *ScoreContext) ([]int32, error) {
	if sc.Query.Hints.NoKernel {
		return core.LayersUnder(doms, rows, k, true), nil
	}
	layers := make([]int32, len(rows))
	seed := make(map[int32]bool, len(sky))
	for _, id := range sky {
		seed[id] = true
	}
	alive := make([]int, 0, len(rows)-len(sky))
	for i := range rows {
		if seed[rows[i].ID] {
			layers[i] = 1
		} else {
			alive = append(alive, i)
		}
	}
	algo := sc.Algo
	if algo == nil {
		algo, _ = core.Lookup("stss")
	}
	for layer := int32(2); int(layer) <= k && len(alive) > 0; layer++ {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		sub := &core.Dataset{Domains: doms, Pts: make([]core.Point, len(alive))}
		for j, i := range alive {
			sub.Pts[j] = rows[i]
			sub.Pts[j].ID = int32(j)
		}
		res, err := algo.Run(sub, core.Options{})
		if err != nil {
			return nil, err
		}
		inLayer := make([]bool, len(alive))
		for _, id := range res.SkylineIDs {
			layers[alive[id]] = layer
			inLayer[id] = true
		}
		next := alive[:0]
		for j, i := range alive {
			if !inLayer[j] {
				next = append(next, i)
			}
		}
		alive = next
	}
	return layers, nil
}

func (layerRanker) OracleRank(oc *OracleContext, sky []int32, k int) []int32 {
	// Iterated naive skyline — independent of the kernel peeling.
	alive := append([]core.Point(nil), oc.Rows...)
	var out []int32
	for layer := 1; layer <= k && len(alive) > 0; layer++ {
		ids := core.NaiveSkylineUnder(oc.Doms, alive)
		sorted := append([]int32(nil), ids...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		out = append(out, sorted...)
		inLayer := make(map[int32]bool, len(ids))
		for _, id := range ids {
			inLayer[id] = true
		}
		next := alive[:0]
		for i := range alive {
			if !inLayer[alive[i].ID] {
				next = append(next, alive[i])
			}
		}
		alive = next
	}
	return out
}

// RankUnion re-layers the un-eliminated union of shard-local layer
// results on the coordinator; rows deeper than k are dropped.
func (layerRanker) RankUnion(wc *WireContext, pts []core.Point, k int) ([]float64, []bool) {
	layers := core.LayersUnder(wc.Doms, pts, k, wc.Query.Hints.NoKernel)
	scores := make([]float64, len(pts))
	keep := make([]bool, len(pts))
	for i, l := range layers {
		scores[i] = float64(l)
		keep[i] = l >= 1
	}
	return scores, keep
}

// RankCostSeconds: up to k kernel peels over n rows.
func (layerRanker) RankCostSeconds(n, m, dims, k int) float64 {
	peels := k
	if peels > 8 {
		peels = 8
	}
	return 2e-9 * float64(n) * float64(m) * float64(peels)
}

// layerOrder collects rows of layers 1..bound in (layer, id) order.
func layerOrder(rows []core.Point, layers []int32) []int32 {
	type lid struct {
		layer int32
		id    int32
	}
	var out []lid
	for i, l := range layers {
		if l >= 1 {
			out = append(out, lid{layer: l, id: rows[i].ID})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].layer != out[j].layer {
			return out[i].layer < out[j].layer
		}
		return out[i].id < out[j].id
	})
	ids := make([]int32, len(out))
	for i, e := range out {
		ids[i] = e.id
	}
	return ids
}

// filteredProjectedRows materializes R: the predicate-filtered table
// projected onto the kept dimensions, original ids preserved.
func filteredProjectedRows(ctx context.Context, ds *core.Dataset, q *Query, keptTO, keptPO []int) ([]core.Point, error) {
	var rows []core.Point
	for i := range ds.Pts {
		if i%ctxCheckEvery == 0 {
			if err := ctxErr(ctx); err != nil {
				return nil, err
			}
		}
		pt := &ds.Pts[i]
		if len(q.Where) > 0 && !matchesAllPreds(q.Where, pt) {
			continue
		}
		rows = append(rows, projectInto(pt, keptTO, keptPO))
	}
	return rows, nil
}
