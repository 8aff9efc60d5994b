package plan

import (
	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/poset"
)

// Naive answers the query by brute force — filter, project (under the
// query's own orders and ideal point, when it brings them), O(n²)
// skyline, O(n·m) rank — with no planner, no index and no cache. It is
// the ground truth every physical plan is differential-tested against:
// this file resolves the query's shape, and internal/oracle holds the
// rankings and the ideal-point transform. The dataset must use the
// table layout (ds.Pts[i].ID == i).
func Naive(ds *core.Dataset, q Query) ([]int32, error) {
	if err := q.validateOn(ds); err != nil {
		return nil, err
	}
	if q.Orders != nil {
		ds = &core.Dataset{Domains: q.Orders, Pts: ds.Pts}
	}
	keptTO, keptPO := resolveSubspace(q.Subspace, ds.NumTO(), ds.NumPO())
	doms := keptPODomains(ds, keptPO)
	var ideal []int64 // the ideal point over the kept TO columns
	if q.Ideal != nil {
		for _, d := range keptTO {
			ideal = append(ideal, q.Ideal[d])
		}
	}

	// R: the filtered rows, projected onto the kept dimensions.
	var rows []core.Point
	for i := range ds.Pts {
		if matchesAllPreds(q.Where, &ds.Pts[i]) {
			rows = append(rows, projectInto(&ds.Pts[i], keptTO, keptPO))
		}
	}
	if q.IdealTransform() {
		rows = oracle.IdealPoints(rows, ideal)
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
	return oracle.Rank(string(q.Rank), doms, rows, sky, q.TopK, ideal)
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
			if fDominates(doms, samples, &rows[j], &rows[i]) {
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
