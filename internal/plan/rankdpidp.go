package plan

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/poset"
)

// dpidpRanker is RankDPIDP — the dominance-potential / inverse-
// dominance-partition score: each row t of R dominated by exactly k
// skyline members contributes 1/k to each of those k members, so a
// member scores high by "explaining" rows few other members cover.
// Members order descending by score (ascending after negation, matching
// the shared rank sort).
//
// Scores are carried as integer k-histograms everywhere and
// materialized by one shared ascending-k summation
// (core.DPIDPScoreFromRuns), so the index-backed, cold-computed and
// cluster-combined floats are bit-identical. The cold scan, the
// per-shard partials and the coordinator's combine hold them as
// ascending (k, count) runs (KHist), built and merged without maps; the
// maintained core.ScoreIndex keeps per-member maps, filled from the
// cold scan's runs.
type dpidpRanker struct{}

func (dpidpRanker) Name() string { return string(RankDPIDP) }

func (dpidpRanker) Rank(ctx context.Context, sc *ScoreContext, ids []int32, k int) ([]int32, bool, error) {
	if sc.Index != nil && sc.Index.Holds(ids) {
		return indexRank(sc.Index, ids, k), true, nil
	}
	// A member miss means the index describes a different skyline than
	// the one being ranked — fall through to the cold scan rather than
	// serve wrong scores.
	hists, err := dpidpHists(ctx, sc, memberPoints(sc.DS, ids))
	if err != nil {
		return nil, false, err
	}
	scores := make([]float64, len(ids))
	for i := range ids {
		scores[i] = -hists[i].Score()
	}
	if sc.StoreIndex != nil {
		sc.StoreIndex(core.NewScoreIndex(ids, histMaps(hists)))
	}
	return sortByScore(ids, scores, k), false, nil
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
	return Partials{Hists: hists}, nil
}

// CombinePartials merges each candidate's ascending runs across shards,
// summing the counts of equal k, and scores the merged runs. Every
// shard's runs must be ascending, as Partials and serve.UnpackHists
// return them.
func (dpidpRanker) CombinePartials(shards []Partials, n int) (Partials, []float64, error) {
	total := 0
	for _, p := range shards {
		if len(p.Hists) != n {
			return Partials{}, nil, fmt.Errorf("shard returned %d dp-idp histograms for %d candidates", len(p.Hists), n)
		}
		for i, h := range p.Hists {
			if len(h.Ks) != len(h.Counts) {
				return Partials{}, nil, fmt.Errorf("shard histogram %d has %d ks but %d counts", i, len(h.Ks), len(h.Counts))
			}
			total += len(h.Ks)
		}
	}
	ks, counts := make([]int32, 0, total), make([]int64, 0, total)
	out := Partials{Hists: make([]KHist, n)}
	scores := make([]float64, n)
	var acc, spare KHist // scratch: one candidate's runs merged so far
	for i := range n {
		acc.Ks, acc.Counts = acc.Ks[:0], acc.Counts[:0]
		for _, p := range shards {
			spare.Ks, spare.Counts = mergeRuns(spare.Ks[:0], spare.Counts[:0], acc, p.Hists[i])
			acc, spare = spare, acc
		}
		from := len(ks)
		ks, counts = append(ks, acc.Ks...), append(counts, acc.Counts...)
		if to := len(ks); to > from {
			out.Hists[i] = KHist{Ks: ks[from:to:to], Counts: counts[from:to:to]}
		}
		scores[i] = -out.Hists[i].Score()
	}
	return out, scores, nil
}

// mergeRuns appends the merge of ascending runs a and b to ks and
// counts, summing the counts of a k both hold.
func mergeRuns(ks []int32, counts []int64, a, b KHist) ([]int32, []int64) {
	x, y := 0, 0
	for x < len(a.Ks) && y < len(b.Ks) {
		ka, kb := a.Ks[x], b.Ks[y]
		k, c := min(ka, kb), int64(0)
		if ka == k {
			c += a.Counts[x]
			x++
		}
		if kb == k {
			c += b.Counts[y]
			y++
		}
		ks, counts = append(ks, k), append(counts, c)
	}
	ks, counts = append(ks, a.Ks[x:]...), append(counts, a.Counts[x:]...)
	return append(ks, b.Ks[y:]...), append(counts, b.Counts[y:]...)
}

// indexRank serves the best k of ids, every one an index member, from
// the index's rank order — sortByScore's order over the members'
// negated scores. When ids are all of the members (a skyline has no
// duplicate ids, so equal counts mean equal sets) the answer is the
// order's first k, shared with the index; a proper subset keeps the
// order's members that are in ids.
func indexRank(ix *core.ScoreIndex, ids []int32, k int) []int32 {
	order := ix.Ranked()
	if len(ids) == len(order) {
		n := min(k, len(order))
		return order[:n:n]
	}
	var top int32
	for _, id := range ids {
		top = max(top, id)
	}
	want := make([]uint64, top>>6+1) // ids, as a bitset over row ids
	for _, id := range ids {
		want[id>>6] |= 1 << (id & 63)
	}
	out := make([]int32, 0, min(k, len(ids)))
	for _, id := range order {
		if len(out) == cap(out) {
			break
		}
		if id <= top && want[id>>6]&(1<<(id&63)) != 0 {
			out = append(out, id)
		}
	}
	return out
}

// dpidpHists computes each member's k-histogram against R (the
// predicate-filtered table in the kept dimensions) as ascending-k runs,
// KHist{} for members that dominate nothing. For the index-eligible
// full-table shape it holds exactly what core.BuildScoreIndex would —
// same integers, same member set — so the result doubles as a freshly
// built index.
func dpidpHists(ctx context.Context, sc *ScoreContext, members []core.Point) ([]KHist, error) {
	// The dominator lists of the dominated rows, end to end: row r's
	// list ends at ends[r], and its length is the row's k.
	var doms, ends []int32
	err := scanDominators(ctx, sc, members, func(d []int32) {
		doms = append(doms, d...)
		ends = append(ends, int32(len(doms)))
	})
	if err != nil {
		return nil, err
	}
	return histRuns(len(members), doms, ends), nil
}

// histRuns turns dpidpHists' dominator lists into each of n members'
// ascending-k runs without comparisons or maps: a counting sort of the
// rows by k, then a counting sort of their (member, k) pairs by member —
// stable, so each member's ks stay ascending — and a run-length pass
// that compacts the ks in place. The views share two backing arrays.
func histRuns(n int, doms, ends []int32) []KHist {
	bounds := func(r int) (int32, int32) {
		if r == 0 {
			return 0, ends[0]
		}
		return ends[r-1], ends[r]
	}
	maxK := int32(0)
	for r := range ends {
		from, to := bounds(r)
		maxK = max(maxK, to-from)
	}
	byK := make([]int, maxK+2)
	for r := range ends {
		from, to := bounds(r)
		byK[to-from+1]++
	}
	for k := range maxK + 1 {
		byK[k+1] += byK[k]
	}
	rows := make([]int32, len(ends))
	for r := range ends {
		from, to := bounds(r)
		rows[byK[to-from]] = int32(r)
		byK[to-from]++
	}

	start := make([]int, n+1)
	for _, j := range doms {
		start[j+1]++
	}
	for j := range n {
		start[j+1] += start[j]
	}
	next := slices.Clone(start[:n])
	ks := make([]int32, len(doms))
	for _, r := range rows {
		from, to := bounds(int(r))
		for _, j := range doms[from:to] {
			ks[next[j]] = to - from
			next[j]++
		}
	}

	counts := make([]int64, len(doms))
	hists := make([]KHist, n)
	w := 0
	for j := range n {
		seg := ks[start[j]:start[j+1]]
		if len(seg) == 0 {
			continue
		}
		from := w
		for i := 0; i < len(seg); {
			c := 1
			for i+c < len(seg) && seg[i+c] == seg[i] {
				c++
			}
			// w never passes i's slot in ks, so the write lands on a
			// pair this pass has already read.
			ks[w], counts[w] = seg[i], int64(c)
			w++
			i += c
		}
		hists[j] = KHist{Ks: ks[from:w:w], Counts: counts[from:w:w]}
	}
	return hists
}

// histMaps expands runs into the map histograms a core.ScoreIndex keeps.
func histMaps(hists []KHist) []map[int32]int64 {
	maps := make([]map[int32]int64, len(hists))
	for i, h := range hists {
		if len(h.Ks) == 0 {
			continue
		}
		m := make(map[int32]int64, len(h.Ks))
		for x, k := range h.Ks {
			m[k] = h.Counts[x]
		}
		maps[i] = m
	}
	return maps
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
// deeper layers peel the residual with the plan's algorithm (SFS unless
// the query's hints force another) — the same elimination a cold query
// would run, minus the re-plan and table rebuild a client peeling by
// hand pays per layer.
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
