package plan

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/poset"
)

// rankNames lists the rankings, sorted by name. A ranked top-k
// switches on the canonical name once per phase: the executor's
// rankAndTruncate, the shard's RankPartials, the coordinator's re-rank
// (CombinePartials or IdealScores) and RunStream's origin-ideal bound.
var rankNames = [...]Rank{RankDomCount, RankDPIDP, RankIdeal, RankLayer}

// lookupRank resolves a ranking name, case-insensitively, to its
// canonical constant.
func lookupRank(name string) (Rank, bool) {
	for _, r := range rankNames {
		if strings.EqualFold(string(r), name) {
			return r, true
		}
	}
	return RankNone, false
}

// unknownRank is the error for a name no ranking answers to.
func unknownRank(name string) error {
	quoted := make([]string, len(rankNames))
	for i, r := range rankNames {
		quoted[i] = fmt.Sprintf("%q", r)
	}
	return fmt.Errorf("plan: unknown rank %q (have: %s)", name, strings.Join(quoted, ", "))
}

// RankerNames returns the ranking names, sorted.
func RankerNames() []string {
	names := make([]string, len(rankNames))
	for i, r := range rankNames {
		names[i] = string(r)
	}
	return names
}

// scoreContext is what the executor's rankings see: the table dataset
// (table layout, ds.Pts[i].ID == i), the query, the resolved kept
// dimensions, and — when the query shape is index-eligible — the
// snapshot's maintained score index plus a callback to persist a
// freshly built one.
type scoreContext struct {
	ds     *core.Dataset
	query  *Query
	keptTO []int
	keptPO []int
	// index is the table's maintained dp-idp score index, nil when
	// absent or when the query shape (subspace/filter/restriction,
	// NoCache) makes it inapplicable.
	index *core.ScoreIndex
	// storeIndex persists a cold-built index on the snapshot's cache;
	// nil when the shape is not index-eligible.
	storeIndex func(*core.ScoreIndex)
}

// KHist is one candidate's k-histogram as ascending runs: Counts[i]
// rows are dominated by the candidate and have exactly Ks[i]
// dominators. Ks is strictly ascending and every count is positive; a
// candidate that dominates nothing has no runs.
type KHist struct {
	Ks     []int32
	Counts []int64
}

// Score is the histogram's dp-idp score (core.DPIDPScoreFromRuns).
func (h KHist) Score() float64 { return core.DPIDPScoreFromRuns(h.Ks, h.Counts) }

// Partials is one shard's contribution to a distributed ranking:
// Counts for domcount, Hists for dp-idp. Each is parallel to the
// candidate list.
type Partials struct {
	Counts []int64
	Hists  []KHist
}

// RankPartials evaluates one shard's partial scores for a distributed
// ranking — the serving layer's /domcount handler dispatches here —
// counting dominance under q.Orders when set. domcount and dpidp
// aggregate over shard-local scans; no other ranking has partials.
func RankPartials(ctx context.Context, ds *core.Dataset, q Query, rank string, cands []core.Point) (Partials, error) {
	if err := q.validateOn(ds); err != nil {
		return Partials{}, err
	}
	ds, _ = q.scope(ds, Env{})
	r, ok := lookupRank(rank)
	if !ok {
		return Partials{}, unknownRank(rank)
	}
	switch r {
	case RankDomCount:
		counts, err := DomCounts(ctx, ds, q, cands)
		return Partials{Counts: counts}, err
	case RankDPIDP:
		hists, err := dpidpPartials(ctx, ds, q, cands)
		return Partials{Hists: hists}, err
	}
	return Partials{}, fmt.Errorf("plan: rank %q has no per-shard partial scores", rank)
}

// CombinePartials folds every shard's partials for n candidates into
// the partials of the union of those tables (what one node holding all
// the rows would have answered — a coordinator's own /domcount body)
// plus the final scores, ascending = better: domcount sums and negates,
// dp-idp merges runs and scores them. The name is matched like
// RankPartials'.
func CombinePartials(rank Rank, shards []Partials, n int) (Partials, []float64, error) {
	r, _ := lookupRank(string(rank))
	switch r {
	case RankDomCount:
		return combineCounts(shards, n)
	case RankDPIDP:
		return combineHists(shards, n)
	}
	return Partials{}, nil, fmt.Errorf("plan: rank %q has no per-shard partial scores", rank)
}

// rankDomCount orders skyline rows by the number of rows of R they
// dominate in the kept dimensions, descending.
func rankDomCount(ctx context.Context, sc *scoreContext, ids []int32, k int) ([]int32, error) {
	counts, err := domCounts(ctx, sc, memberPoints(sc.ds, ids))
	if err != nil {
		return nil, err
	}
	scores := make([]float64, len(ids))
	// Negated so the shared ascending sort ranks higher counts first.
	for i := range ids {
		scores[i] = -float64(counts[i])
	}
	return sortByScore(ids, scores, k), nil
}

// combineCounts sums the shards' dominance counts and negates them.
func combineCounts(shards []Partials, n int) (Partials, []float64, error) {
	counts := make([]int64, n)
	for _, p := range shards {
		if len(p.Counts) != n {
			return Partials{}, nil, fmt.Errorf("shard returned %d domcounts for %d candidates", len(p.Counts), n)
		}
		for i, c := range p.Counts {
			counts[i] += c
		}
	}
	scores := make([]float64, n)
	for i, c := range counts {
		scores[i] = -float64(c)
	}
	return Partials{Counts: counts}, scores, nil
}

// rankIdeal orders skyline rows by L1 distance to an ideal point over
// the kept TO columns (the dTSS fully-dynamic |v − q| transform) plus
// the preference-DAG depth of each kept PO value, ascending.
func rankIdeal(sc *scoreContext, ids []int32, k int) []int32 {
	depths := idealDepths(keptPODomains(sc.ds, sc.keptPO))
	scores := make([]float64, len(ids))
	for i, id := range ids {
		pt := &sc.ds.Pts[id]
		scores[i] = idealScore(sc.query.Ideal, sc.keptTO, sc.keptPO, depths, pt.TO, pt.PO)
	}
	return sortByScore(ids, scores, k)
}

// IdealScores is the ideal ranking's score of n gathered cluster
// candidates, computed coordinator-locally: the score needs only the
// candidate's own values and the merged domains, no shard round-trip.
// ideal is the query's reference point (nil: the origin); row(i) is
// candidate i's full-width TO values and PO value ids; doms are the
// kept PO columns' domains, in kept order.
func IdealScores(ideal []int64, keptTO, keptPO []int, doms []*poset.Domain, n int, row func(i int) (to []int64, po []int32)) []float64 {
	depths := idealDepths(doms)
	scores := make([]float64, n)
	for i := range n {
		to, po := row(i)
		scores[i] = idealScore(ideal, keptTO, keptPO, depths, to, po)
	}
	return scores
}

// originIdealBound is the sound streaming bound of the origin-ideal
// ranking: the scan's bound is an SFS key, Σ kept TO + Σ topological
// ordinal, and an ordinal never undershoots its value's depth, so
// key − Σ(|domain|−1) ≤ score for every later row. Off-origin ideal
// points break the bound, so RunStream asks only when Ideal is nil.
func originIdealBound(ds *core.Dataset, keptTO, keptPO []int) (func(pt *core.Point) float64, int64) {
	doms := keptPODomains(ds, keptPO)
	depths := idealDepths(doms)
	var slack int64
	for _, dom := range doms {
		slack += int64(dom.Size() - 1)
	}
	return func(pt *core.Point) float64 {
		return idealScore(nil, keptTO, keptPO, depths, pt.TO, pt.PO)
	}, slack
}

// idealDepths precomputes, per kept PO domain, each value's depth: the
// number of values t-preferred to it (0 for DAG tops).
func idealDepths(doms []*poset.Domain) [][]int32 {
	depths := make([][]int32, len(doms))
	for j, dom := range doms {
		col := make([]int32, dom.Size())
		for v := int32(0); int(v) < dom.Size(); v++ {
			for w := int32(0); int(w) < dom.Size(); w++ {
				if dom.TPrefers(w, v) {
					col[v]++
				}
			}
		}
		depths[j] = col
	}
	return depths
}

// idealScore is the ideal ranking's score of a full-width row — TO
// values to (a table's int32 or the wire's int64) and PO value ids po:
// L1 distance to the ideal point (nil: the origin) over the kept TO
// columns plus the depth of each kept PO value. Smaller is better.
func idealScore[T int32 | int64](ideal []int64, keptTO, keptPO []int, depths [][]int32, to []T, po []int32) float64 {
	var s float64
	for _, d := range keptTO {
		var ref int64
		if ideal != nil {
			ref = ideal[d]
		}
		diff := int64(to[d]) - ref
		if diff < 0 {
			diff = -diff
		}
		s += float64(diff)
	}
	for j, d := range keptPO {
		s += float64(depths[j][po[d]])
	}
	return s
}
