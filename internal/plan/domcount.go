package plan

import (
	"context"
	"fmt"

	"repro/internal/core"
)

// DomCounts counts, for each candidate point, how many rows of R — the
// dataset filtered by q.Where — it dominates on q.Subspace's kept
// dimensions (all of them when nil). Candidates are full-dimensional
// points identified by value, not by row id: this is the shard-side
// scoring primitive of distributed top-k by dominance count, where the
// coordinator holds merged skyline rows whose ids are shard-scoped and
// needs every shard's partial count for each. A row with values equal
// to a candidate is never counted (dominance is strict), matching the
// single-node executor's self-exclusion. ctx is checked cooperatively.
func DomCounts(ctx context.Context, ds *core.Dataset, q Query, cands []core.Point) ([]int64, error) {
	sc, err := candidateContext(ds, &q, cands)
	if err != nil {
		return nil, err
	}
	return domCounts(ctx, sc, cands)
}

// domCounts counts, per member, the rows of R it dominates.
func domCounts(ctx context.Context, sc *scoreContext, members []core.Point) ([]int64, error) {
	counts := make([]int64, len(members))
	err := scanDominators(ctx, sc, members, func(doms []int32) {
		for _, j := range doms {
			counts[j]++
		}
	})
	return counts, err
}

// scanDominators is the one row walker behind every scan-backed
// ranking. It loads members (full-dimensional points) into a bitmap
// dominator scan (core.DomScan) over sc's kept dimensions, then walks
// R — sc.ds filtered by the query's predicates and projected onto the
// kept dimensions — and hands visit, for each row some member strictly
// dominates, the indexes of all members that do (reused between calls).
func scanDominators(ctx context.Context, sc *scoreContext, members []core.Point, visit func(doms []int32)) error {
	scan := core.NewDomScan(keptPODomains(sc.ds, sc.keptPO), len(sc.keptTO), len(members))
	defer scan.Close()
	to, po := make([]int32, len(sc.keptTO)), make([]int32, len(sc.keptPO))
	project := func(pt *core.Point) {
		for j, d := range sc.keptTO {
			to[j] = pt.TO[d]
		}
		for j, d := range sc.keptPO {
			po[j] = pt.PO[d]
		}
	}
	for i := range members {
		project(&members[i])
		scan.Add(to, po)
	}
	for i := range sc.ds.Pts {
		if i%ctxCheckEvery == 0 {
			if err := ctxErr(ctx); err != nil {
				return err
			}
		}
		row := &sc.ds.Pts[i]
		if !matchesAllPreds(sc.query.Where, row) {
			continue
		}
		project(row)
		if doms := scan.Dominators(to, po); len(doms) > 0 {
			visit(doms)
		}
	}
	return nil
}

// memberPoints gathers the table rows of the given ids.
func memberPoints(ds *core.Dataset, ids []int32) []core.Point {
	pts := make([]core.Point, len(ids))
	for i, id := range ids {
		pts[i] = ds.Pts[id]
	}
	return pts
}

// candidateContext validates q and the full-dimensional, value-addressed
// candidates of a distributed scoring request against ds's shape and
// resolves the kept dimensions the candidates are scored on.
func candidateContext(ds *core.Dataset, q *Query, cands []core.Point) (*scoreContext, error) {
	if err := q.validateOn(ds); err != nil {
		return nil, err
	}
	for i := range cands {
		c := &cands[i]
		if len(c.TO) != ds.NumTO() || len(c.PO) != ds.NumPO() {
			return nil, fmt.Errorf("plan: candidate %d has %d/%d dims, table has %d/%d",
				i, len(c.TO), len(c.PO), ds.NumTO(), ds.NumPO())
		}
	}
	sc := &scoreContext{ds: ds, query: q}
	sc.keptTO, sc.keptPO = resolveSubspace(q.Subspace, ds.NumTO(), ds.NumPO())
	return sc, nil
}

// matchesAllPreds reports whether a row satisfies every predicate.
func matchesAllPreds(where []Predicate, pt *core.Point) bool {
	for i := range where {
		if !where[i].matches(pt) {
			return false
		}
	}
	return true
}

// projectInto maps a full-dimensional point into the kept dimensions.
func projectInto(pt *core.Point, keptTO, keptPO []int) core.Point {
	np := core.Point{ID: pt.ID}
	np.TO = make([]int32, len(keptTO))
	for j, d := range keptTO {
		np.TO[j] = pt.TO[d]
	}
	if len(keptPO) > 0 {
		np.PO = make([]int32, len(keptPO))
		for j, d := range keptPO {
			np.PO[j] = pt.PO[d]
		}
	}
	return np
}
