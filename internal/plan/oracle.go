package plan

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/poset"
)

// Naive answers the query by brute force — filter, project (under the
// query's own orders and ideal point, when it brings them), O(n²)
// skyline, O(n·m) rank — with no planner, no index and no cache. It is
// the ground truth every physical plan is differential-tested against
// (FuzzPlanAgreement, exp.FigurePlan's verification pass). The dataset
// must use the table layout (ds.Pts[i].ID == i).
func Naive(ds *core.Dataset, q Query) ([]int32, error) {
	if err := q.validateOn(ds); err != nil {
		return nil, err
	}
	if q.Orders != nil {
		ds = &core.Dataset{Domains: q.Orders, Pts: ds.Pts}
	}
	keptTO, keptPO := resolveSubspace(q.Subspace, ds.NumTO(), ds.NumPO())
	doms := keptPODomains(ds, keptPO)

	// R: the filtered rows, projected onto the kept dimensions.
	var rows []core.Point
	for i := range ds.Pts {
		pt := &ds.Pts[i]
		ok := true
		for j := range q.Where {
			if !q.Where[j].matches(pt) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		np := core.Point{ID: pt.ID, TO: make([]int32, len(keptTO))}
		for j, d := range keptTO {
			np.TO[j] = pt.TO[d]
			if q.IdealTransform() {
				if np.TO[j] -= int32(q.Ideal[d]); np.TO[j] < 0 {
					np.TO[j] = -np.TO[j]
				}
			}
		}
		if len(keptPO) > 0 {
			np.PO = make([]int32, len(keptPO))
			for j, d := range keptPO {
				np.PO[j] = pt.PO[d]
			}
		}
		rows = append(rows, np)
	}

	sky := core.NaiveSkylineUnder(doms, rows)
	if len(q.FWeights) > 0 {
		// Independent restricted check: eliminate over ALL rows of R
		// (not just skyline members) with a sampled superset of the
		// vertex vectors — F_S-dominance for S ⊇ vertices coincides
		// with the family's F-dominance, so agreement with the
		// executor's member-only vertex elimination is exactly the
		// soundness theorem under test.
		sky = oracleRestrict(doms, keptTO, q.FWeights, rows, sky)
	}
	if q.TopK <= 0 {
		return sky, nil
	}
	if q.Rank == RankNone {
		if q.TopK < len(sky) {
			sky = sky[:q.TopK]
		}
		return sky, nil
	}
	r, ok := LookupRanker(string(q.Rank))
	if !ok {
		return nil, fmt.Errorf("plan: unknown rank %q (have: %s)", q.Rank, quotedRankerNames())
	}
	oc := &OracleContext{Query: &q, KeptTO: keptTO, KeptPO: keptPO, Doms: doms, Rows: rows}
	return r.OracleRank(oc, sky, q.TopK), nil
}

// oracleRestrict is the brute-force restricted skyline: every row of R
// is checked against every other row under a deterministic sample of
// the weight family — the vertices plus their pairwise midpoints (a
// dyadic convex combination, so with dyadic weight bounds every dot
// product is exact in float64 and the check is FP-identical to the
// vertex-only one). The survivors are then intersected with the
// unrestricted skyline order the executor preserves.
func oracleRestrict(doms []*poset.Domain, keptTO []int, weights []float64, rows []core.Point, sky []int32) []int32 {
	vtx := FVertices(weights, keptTO)
	samples := append([][]float64(nil), vtx...)
	for i := 0; i < len(vtx); i++ {
		for j := i + 1; j < len(vtx); j++ {
			mid := make([]float64, len(vtx[i]))
			for d := range mid {
				mid[d] = (vtx[i][d] + vtx[j][d]) / 2
			}
			samples = append(samples, mid)
		}
	}
	surv := make(map[int32]bool)
	for i := range rows {
		dominated := false
		for j := range rows {
			if i == j {
				continue
			}
			if FDominates(doms, samples, &rows[j], &rows[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			surv[rows[i].ID] = true
		}
	}
	out := make([]int32, 0, len(surv))
	for _, id := range sky {
		if surv[id] {
			out = append(out, id)
		}
	}
	return out
}

// sortByScore orders ids by ascending score (id-ascending on ties) and
// keeps the first k; scores[i] is ids[i]'s score.
func sortByScore(ids []int32, scores []float64, k int) []int32 {
	if len(ids) == 0 {
		return nil
	}
	type scored struct {
		score float64
		id    int32
	}
	all := make([]scored, len(ids))
	for i, id := range ids {
		all[i] = scored{scores[i], id}
	}
	slices.SortFunc(all, func(a, b scored) int {
		switch {
		case a.score < b.score:
			return -1
		case a.score > b.score:
			return 1
		}
		return cmp.Compare(a.id, b.id)
	})
	out := make([]int32, min(k, len(all)))
	for i := range out {
		out[i] = all[i].id
	}
	return out
}
