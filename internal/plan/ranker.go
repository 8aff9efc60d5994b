package plan

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/poset"
)

// Ranker is one top-k ranking method. The executor, the brute-force
// oracle, the streaming path and the cluster coordinator all dispatch
// through LookupRanker, so no tier has a per-ranking switch arm.
//
// Rank orders the skyline ids of the running query and returns the
// best k. A ranker may return rows beyond the input ids when its
// semantics demand it (RankLayer's k is a depth bound: it returns every
// row of skyline layers 1..k, of which the input skyline is layer 1).
// fromIndex reports that the scores were served from a maintained score
// index rather than computed against the table.
//
// OracleRank is the ranker's brute-force reference semantics, used by
// Naive and the differential/fuzz harnesses; it must be independent of
// Rank's implementation strategy.
//
// Optional capabilities, discovered by interface assertion:
//
//   - PartialScorer: per-shard partial scores + coordinator combine,
//     for distributed ranking where scores aggregate over shard-local
//     scans (dominance counts, dp-idp histograms).
//   - WireScorer: coordinator-local scoring of gathered candidate rows,
//     for scores computable from the candidate values alone (ideal
//     distance).
//   - UnionRanker: the coordinator gathers every shard's local result
//     without dominance elimination and the ranker orders the union
//     (skyline layers).
//   - StreamBounder: a sound lower bound on every later progressive
//     row's score, enabling ranked streaming with early termination.
//   - IdealConsumer: the ranker consumes Query.Ideal.
type Ranker interface {
	Name() string
	Rank(ctx context.Context, sc *ScoreContext, ids []int32, k int) (ranked []int32, fromIndex bool, err error)
	OracleRank(oc *OracleContext, sky []int32, k int) []int32
}

// ScoreContext is what a Ranker's executor-side Rank sees: the table
// dataset (table layout, ds.Pts[i].ID == i), the query, the resolved
// kept dimensions, and — when the query shape is index-eligible — the
// snapshot's maintained score index plus a callback to persist a
// freshly built one.
type ScoreContext struct {
	DS     *core.Dataset
	Query  *Query
	KeptTO []int
	KeptPO []int
	// Index is the table's maintained dp-idp score index, nil when
	// absent or when the query shape (subspace/filter/restriction,
	// NoCache) makes it inapplicable.
	Index *core.ScoreIndex
	// StoreIndex persists a cold-built index on the snapshot's cache;
	// nil when the shape is not index-eligible.
	StoreIndex func(*core.ScoreIndex)
	// Algo is the plan's skyline algorithm; rankers that peel residual
	// skylines (layer depth) reuse it rather than re-deriving a choice.
	// Nil falls back to the paper's default.
	Algo core.Algorithm
}

// OracleContext is what OracleRank sees: the query, kept dimensions,
// the kept PO domains, and R — the predicate-filtered rows projected
// onto the kept dimensions, with original table ids.
type OracleContext struct {
	Query  *Query
	KeptTO []int
	KeptPO []int
	Doms   []*poset.Domain
	Rows   []core.Point
}

// WireRow is one gathered cluster candidate as a WireScorer sees it:
// the full-width TO values off the wire plus the kept PO value ids
// (projected, in kept order) resolved against the coordinator's merged
// domains.
type WireRow struct {
	TO []int64
	PO []int32
}

// WireContext is the coordinator-side scoring context: the query, the
// kept dimensions, and the kept PO domains of the merged table schema.
type WireContext struct {
	Query  *Query
	KeptTO []int
	KeptPO []int
	Doms   []*poset.Domain
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
// Counts for count-additive scores (dominance counts), Hists for
// histogram-additive ones (dp-idp). Each is parallel to the candidate
// list; a ranker fills the representation it combines.
type Partials struct {
	Counts []int64
	Hists  []KHist
}

// PartialScorer is the distributed-aggregation capability: Partials
// scores the candidate rows against one shard's local table, and
// CombinePartials folds every shard's result into the partials of the
// union of those tables (what one node holding all the rows would have
// answered — a coordinator's own /domcount body) plus the final scores
// (ascending = better, matching the shared rank sort).
type PartialScorer interface {
	Partials(ctx context.Context, ds *core.Dataset, q Query, cands []core.Point) (Partials, error)
	CombinePartials(shards []Partials, n int) (merged Partials, scores []float64, err error)
}

// WireScorer scores gathered candidates from their values alone, with
// no shard round-trip.
type WireScorer interface {
	WireScores(wc *WireContext, rows []WireRow) []float64
}

// UnionRanker ranks the un-eliminated union of every shard's local
// result: scores (ascending = better) plus a keep mask for rows the
// ranking excludes entirely.
type UnionRanker interface {
	RankUnion(wc *WireContext, pts []core.Point, k int) (scores []float64, keep []bool)
}

// StreamBounder yields a per-row score function plus a slack s such
// that key − s never exceeds any later row's score, where key is the
// progressive scan's bound, the SFS key of its next row — the sound
// early-stop condition of the score-threshold streaming path. ok=false
// declines (e.g. the bound is only sound for a specific query shape).
type StreamBounder interface {
	StreamScorer(sc *ScoreContext) (score func(pt *core.Point) float64, slack int64, ok bool)
}

// IdealConsumer marks rankers that consume Query.Ideal; Validate
// rejects an ideal point sent to any other ranking.
type IdealConsumer interface{ ConsumesIdeal() }

// rankers holds the built-in rankings, sorted by name; the Rank
// constants are their wire names.
var rankers = [...]Ranker{domcountRanker{}, dpidpRanker{}, idealRanker{}, layerRanker{}}

// LookupRanker finds a ranking by name, case-insensitively.
func LookupRanker(name string) (Ranker, bool) {
	for _, r := range rankers {
		if strings.EqualFold(r.Name(), name) {
			return r, true
		}
	}
	return nil, false
}

// RankerNames returns the ranking names, sorted.
func RankerNames() []string {
	names := make([]string, len(rankers))
	for i, r := range rankers {
		names[i] = r.Name()
	}
	return names
}

// quotedRankerNames renders the ranking names for error messages.
func quotedRankerNames() string {
	names := RankerNames()
	for i, n := range names {
		names[i] = fmt.Sprintf("%q", n)
	}
	return strings.Join(names, ", ")
}

// RankPartials evaluates one shard's partial scores for a distributed
// ranking — the serving layer's /domcount handler dispatches here —
// counting dominance under q.Orders when set.
func RankPartials(ctx context.Context, ds *core.Dataset, q Query, rank string, cands []core.Point) (Partials, error) {
	if err := q.Validate(ds.NumTO(), ds.NumPO(), domainSizes(ds)); err != nil {
		return Partials{}, err
	}
	ds, _ = q.scope(ds, Env{})
	r, ok := LookupRanker(rank)
	if !ok {
		return Partials{}, fmt.Errorf("plan: unknown rank %q (have: %s)", rank, quotedRankerNames())
	}
	ps, ok := r.(PartialScorer)
	if !ok {
		return Partials{}, fmt.Errorf("plan: rank %q has no per-shard partial scores", rank)
	}
	return ps.Partials(ctx, ds, q, cands)
}

// domcountRanker is RankDomCount: skyline rows ordered by the number of
// rows of R they dominate in the kept dimensions, descending.
type domcountRanker struct{}

func (domcountRanker) Name() string { return string(RankDomCount) }

func (domcountRanker) Rank(ctx context.Context, sc *ScoreContext, ids []int32, k int) ([]int32, bool, error) {
	counts, err := domCounts(ctx, sc, memberPoints(sc.DS, ids))
	if err != nil {
		return nil, false, err
	}
	scores := make(map[int32]float64, len(ids))
	// Negated so the shared ascending sort ranks higher counts first.
	for i, id := range ids {
		scores[id] = -float64(counts[i])
	}
	return sortByScore(ids, scores, k), false, nil
}

func (domcountRanker) OracleRank(oc *OracleContext, sky []int32, k int) []int32 {
	rows := oc.Rows
	byID := make(map[int32]*core.Point, len(rows))
	for i := range rows {
		byID[rows[i].ID] = &rows[i]
	}
	counts := make(map[int32]float64, len(sky))
	for _, id := range sky {
		s := byID[id]
		var c float64
		for i := range rows {
			if rows[i].ID != id && core.DominatesUnder(oc.Doms, s, &rows[i]) {
				c++
			}
		}
		counts[id] = -c // ascending sort ranks bigger counts first
	}
	return sortByScore(sky, counts, k)
}

// Partials delegates to the exact per-shard dominance-count scan the
// coordinator has always scattered; CombinePartials sums and negates.
func (domcountRanker) Partials(ctx context.Context, ds *core.Dataset, q Query, cands []core.Point) (Partials, error) {
	counts, err := DomCounts(ctx, ds, q, cands)
	if err != nil {
		return Partials{}, err
	}
	return Partials{Counts: counts}, nil
}

func (domcountRanker) CombinePartials(shards []Partials, n int) (Partials, []float64, error) {
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

// idealRanker is RankIdeal: skyline rows ordered by L1 distance to an
// ideal point over the kept TO columns (the dTSS fully-dynamic |v − q|
// transform) plus the preference-DAG depth of each kept PO value,
// ascending.
type idealRanker struct{}

func (idealRanker) Name() string { return string(RankIdeal) }

func (idealRanker) ConsumesIdeal() {}

func (idealRanker) Rank(ctx context.Context, sc *ScoreContext, ids []int32, k int) ([]int32, bool, error) {
	depths := idealDepths(sc.DS, sc.KeptPO)
	scores := make(map[int32]float64, len(ids))
	for _, id := range ids {
		scores[id] = idealScore(sc.Query, sc.KeptTO, sc.KeptPO, &sc.DS.Pts[id], depths)
	}
	return sortByScore(ids, scores, k), false, nil
}

func (idealRanker) OracleRank(oc *OracleContext, sky []int32, k int) []int32 {
	q := oc.Query
	rows := oc.Rows
	scores := make(map[int32]float64, len(sky))
	byID := make(map[int32]*core.Point, len(rows))
	for i := range rows {
		byID[rows[i].ID] = &rows[i]
	}
	for _, id := range sky {
		s := byID[id]
		var sc float64
		for j, d := range oc.KeptTO {
			var ideal int64
			if q.Ideal != nil {
				ideal = q.Ideal[d]
			}
			diff := int64(s.TO[j]) - ideal
			if diff < 0 {
				diff = -diff
			}
			sc += float64(diff)
		}
		for j := range oc.KeptPO {
			dom := oc.Doms[j]
			for w := int32(0); int(w) < dom.Size(); w++ {
				if dom.TPrefers(w, s.PO[j]) {
					sc++
				}
			}
		}
		scores[id] = sc
	}
	return sortByScore(sky, scores, k)
}

// WireScores ranks gathered cluster candidates coordinator-locally:
// the score needs only the candidate's own values and the merged
// domains, no shard round-trip.
func (idealRanker) WireScores(wc *WireContext, rows []WireRow) []float64 {
	depths := make([][]int32, len(wc.KeptPO))
	for j := range wc.KeptPO {
		dom := wc.Doms[j]
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
	scores := make([]float64, len(rows))
	for i := range rows {
		var s float64
		for _, d := range wc.KeptTO {
			var ref int64
			if wc.Query.Ideal != nil {
				ref = wc.Query.Ideal[d]
			}
			diff := rows[i].TO[d] - ref
			if diff < 0 {
				diff = -diff
			}
			s += float64(diff)
		}
		for j := range wc.KeptPO {
			s += float64(depths[j][rows[i].PO[j]])
		}
		scores[i] = s
	}
	return scores
}

// StreamScorer is the sound streaming bound of the origin-ideal
// ranking: the scan's bound is an SFS key, Σ kept TO + Σ topological
// ordinal, and an ordinal never undershoots its value's depth, so
// key − Σ(|domain|−1) ≤ score for every later row. Off-origin
// ideal points break the bound, so the capability declines them.
func (idealRanker) StreamScorer(sc *ScoreContext) (func(pt *core.Point) float64, int64, bool) {
	if sc.Query.Ideal != nil {
		return nil, 0, false
	}
	depths := idealDepths(sc.DS, sc.KeptPO)
	var slack int64
	for _, d := range sc.KeptPO {
		slack += int64(sc.DS.Domains[d].Size() - 1)
	}
	q, keptTO, keptPO := sc.Query, sc.KeptTO, sc.KeptPO
	return func(pt *core.Point) float64 {
		return idealScore(q, keptTO, keptPO, pt, depths)
	}, slack, true
}

// idealDepths precomputes, per kept PO column, each value's depth: the
// number of values t-preferred to it (0 for DAG tops).
func idealDepths(ds *core.Dataset, keptPO []int) [][]int32 {
	depths := make([][]int32, len(keptPO))
	for j, d := range keptPO {
		dom := ds.Domains[d]
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

// idealScore is the RankIdeal score of a (full-dimensional) row: L1
// distance to the ideal point over the kept TO columns plus the
// preference-DAG depth of each kept PO value. Smaller is better.
func idealScore(q *Query, keptTO, keptPO []int, pt *core.Point, depths [][]int32) float64 {
	var s float64
	for _, d := range keptTO {
		var ref int64
		if q.Ideal != nil {
			ref = q.Ideal[d]
		}
		diff := int64(pt.TO[d]) - ref
		if diff < 0 {
			diff = -diff
		}
		s += float64(diff)
	}
	for j, d := range keptPO {
		s += float64(depths[j][pt.PO[d]])
	}
	return s
}
