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
func domCounts(ctx context.Context, sc *ScoreContext, members []core.Point) ([]int64, error) {
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
// R — sc.DS filtered by the query's predicates and projected onto the
// kept dimensions — and hands visit, for each row some member strictly
// dominates, the indexes of all members that do (reused between calls).
func scanDominators(ctx context.Context, sc *ScoreContext, members []core.Point, visit func(doms []int32)) error {
	scan := core.NewDomScan(keptPODomains(sc.DS, sc.KeptPO), len(sc.KeptTO), len(members))
	defer scan.Close()
	to, po := make([]int32, len(sc.KeptTO)), make([]int32, len(sc.KeptPO))
	project := func(pt *core.Point) {
		for j, d := range sc.KeptTO {
			to[j] = pt.TO[d]
		}
		for j, d := range sc.KeptPO {
			po[j] = pt.PO[d]
		}
	}
	for i := range members {
		project(&members[i])
		scan.Add(to, po)
	}
	for i := range sc.DS.Pts {
		if i%ctxCheckEvery == 0 {
			if err := ctxErr(ctx); err != nil {
				return err
			}
		}
		row := &sc.DS.Pts[i]
		if !matchesAllPreds(sc.Query.Where, row) {
			continue
		}
		project(row)
		if doms := scan.Dominators(to, po); len(doms) > 0 {
			visit(doms)
		}
	}
	return nil
}

// domScanCostSeconds is the planner's cost term for one scanDominators
// pass of n rows against m members over dims kept dimensions, shared by
// the scan-backed rankings (domcount, dp-idp): a·n·dims·⌈m/64⌉ for the
// per-dimension bitmap ANDs plus b·n per row. Fitted by relative least
// squares to cold in-process runs at exp.StaticDefaults (2 TO + 2 PO
// dims), N = 4k/10k/50k (m = 958/1861/3166): domcount 1.5/5.7/53 ms,
// dp-idp 3.0/16/205 ms, on a 2-vCPU Intel Xeon @ 2.10GHz sandbox,
// go1.24, one goroutine. The fit reads domcount at 1.1–1.3× and dp-idp
// at 0.3–0.6× for those runs. dp-idp has since traded its per-member
// map visitor for an append per dominated row and two counting sorts
// (histRuns): BenchmarkDomScanDPIDP (N = 10k) went from 20–23 to 10–12 ms
// on a 2-vCPU Intel Xeon, go1.24. What it still pays beyond domcount
// grows with the dominating pairs, which this shape does not see.
func domScanCostSeconds(n, m, dims int) float64 {
	return 5.2e-9*float64(n)*float64(dims)*float64((m+63)/64) + 1.2e-7*float64(n)
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
func candidateContext(ds *core.Dataset, q *Query, cands []core.Point) (*ScoreContext, error) {
	if err := q.Validate(ds.NumTO(), ds.NumPO(), domainSizes(ds)); err != nil {
		return nil, err
	}
	for i := range cands {
		c := &cands[i]
		if len(c.TO) != ds.NumTO() || len(c.PO) != ds.NumPO() {
			return nil, fmt.Errorf("plan: candidate %d has %d/%d dims, table has %d/%d",
				i, len(c.TO), len(c.PO), ds.NumTO(), ds.NumPO())
		}
	}
	sc := &ScoreContext{DS: ds, Query: q}
	sc.KeptTO, sc.KeptPO = resolveSubspace(q.Subspace, ds.NumTO(), ds.NumPO())
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
