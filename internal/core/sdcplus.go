package core

import (
	"context"
	"time"

	"repro/internal/poset"
	"repro/internal/rtree"
)

// stratumIndex is one SDC+ stratum: the points whose maximum uncovered
// level equals the stratum's level, indexed by an R-tree in the
// transformed m-dominance space.
type stratumIndex struct {
	level int32
	idxs  []int32
	tree  *rtree.Tree
}

// buildStrata partitions the points by uncovered level under the given
// domains and bulk-loads one transformed-space R-tree per stratum.
// Page writes are charged to io.
func buildStrata(ds *Dataset, domains []*poset.Domain, opt Options, io *rtree.IOCounter) []stratumIndex {
	maxLv := int32(0)
	for _, dm := range domains {
		if dm.MaxLevel() > maxLv {
			maxLv = dm.MaxLevel()
		}
	}
	buckets := make([][]int32, maxLv+1)
	for i := range ds.Pts {
		lv := pointLevel(domains, &ds.Pts[i])
		buckets[lv] = append(buckets[lv], int32(i))
	}
	var strata []stratumIndex
	for lv, idxs := range buckets {
		if len(idxs) == 0 {
			continue
		}
		strata = append(strata, stratumIndex{
			level: int32(lv),
			idxs:  idxs,
			tree:  buildMTree(ds, domains, idxs, opt, io),
		})
	}
	return strata
}

// SDCPlus implements the strongest baseline of Chan et al. (§II-C):
// one stratum per uncovered level, processed in ascending order. A
// global list holds confirmed skyline points; a local list per stratum
// holds candidates that may still be false hits. MBBs are screened with
// m-dominance against both lists; de-heaped points are checked with the
// exact dominance oracle against the local then global lists, and
// cross-examine the local list to evict false hits. A stratum's local
// list becomes definite — and is output — only when the stratum is
// exhausted, which is why SDC+ emits in bursts (Figure 11).
func SDCPlus(ds *Dataset, opt Options) *Result {
	opt = opt.withDefaults()
	res := &Result{}
	if len(ds.Pts) == 0 {
		return res
	}

	buildStart := time.Now()
	buildIO := &rtree.IOCounter{}
	strata := buildStrata(ds, ds.Domains, opt, buildIO)
	res.Metrics.BuildWriteIOs = buildIO.Writes
	res.Metrics.BuildCPU = time.Since(buildStart)

	_ = runSDCPlus(opt.Ctx, ds, ds.Domains, strata, &rtree.IOCounter{}, res) // a canceled run leaves res partial
	return res
}

// runSDCPlus executes the SDC+ query phase over prebuilt strata,
// appending results and metrics to res. Node visits are charged to io
// through one Reader per stratum. ctx is checked every dynCtxCheckEvery
// heap steps — the same cooperative cadence as the dTSS traversal
// loops — so even the rebuild-everything baseline releases its worker
// mid-run when the request is canceled; a nil ctx never cancels.
func runSDCPlus(ctx context.Context, ds *Dataset, domains []*poset.Domain, strata []stratumIndex, io *rtree.IOCounter, res *Result) error {
	clock := newEmitClock(io)
	type cand struct {
		p  *Point
		co []int32
	}
	var global []cand
	var checks int64

	mDominatedCorner := func(corner []int32, local []cand) bool {
		for i := range global {
			checks++
			if paretoDominates(global[i].co, corner) {
				return true
			}
		}
		for i := range local {
			checks++
			if paretoDominates(local[i].co, corner) {
				return true
			}
		}
		return false
	}

	for _, st := range strata {
		var local []cand
		rd := st.tree.NewReader(io, nil)
		var h bbsHeap
		for _, e := range rd.Root().Entries {
			h.push(e)
		}
		for steps := 0; h.len() > 0; steps++ {
			if steps%dynCtxCheckEvery == dynCtxCheckEvery-1 {
				if err := dynCtxErr(ctx); err != nil {
					return err
				}
			}
			it := h.pop()
			if it.isPoint {
				p := &ds.Pts[it.e.ID]
				// Exact dominance against the local list.
				dominated := false
				for i := range local {
					checks++
					if DominatesUnder(domains, local[i].p, p) {
						dominated = true
						break
					}
				}
				if dominated {
					res.Metrics.PointsPruned++
					continue
				}
				// Evict local false hits dominated by p.
				keep := local[:0]
				for _, c := range local {
					checks++
					if !DominatesUnder(domains, p, c.p) {
						keep = append(keep, c)
					}
				}
				local = keep
				// Exact dominance against the global list.
				for i := range global {
					checks++
					if DominatesUnder(domains, global[i].p, p) {
						dominated = true
						break
					}
				}
				if dominated {
					res.Metrics.PointsPruned++
					continue
				}
				local = append(local, cand{p: p, co: it.e.Lo})
				continue
			}
			if mDominatedCorner(it.e.Lo, local) {
				res.Metrics.NodesPruned++
				continue
			}
			node := rd.Open(it.e)
			res.Metrics.NodesOpened++
			for _, e := range node.Entries {
				if !e.IsLeafEntry() && mDominatedCorner(e.Lo, local) {
					res.Metrics.NodesPruned++
					continue
				}
				h.push(e)
			}
		}
		// Stratum exhausted: the local list holds actual skyline points.
		for _, c := range local {
			res.SkylineIDs = append(res.SkylineIDs, c.p.ID)
			res.Metrics.Emissions = append(res.Metrics.Emissions, clock.emission(c.p.ID))
		}
		global = append(global, local...)
	}

	res.Metrics.DomChecks += checks
	res.Metrics.ReadIOs += io.Reads
	res.Metrics.WriteIOs += io.Writes
	res.Metrics.CPU += clock.elapsed()
	return nil
}
