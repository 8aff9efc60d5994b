package core

import (
	"time"

	"repro/internal/poset"
	"repro/internal/rtree"
)

// BBSPlus implements the BBS+ baseline of Chan et al. (described in
// §II-C): BBS over the transformed m-dominance space. Because
// m-dominance is stronger than actual dominance, the candidate set may
// contain false hits, so nothing can be output until the traversal
// finishes and every candidate has been cross-examined against the
// others with the exact dominance oracle — BBS+ is not progressive.
func BBSPlus(ds *Dataset, opt Options) *Result {
	opt = opt.withDefaults()
	res := &Result{}
	if len(ds.Pts) == 0 {
		return res
	}

	buildStart := time.Now()
	io := &rtree.IOCounter{}
	tree := buildMTree(ds, ds.Domains, nil, opt, io)
	res.Metrics.BuildWriteIOs = io.Writes
	res.Metrics.BuildCPU = time.Since(buildStart)
	io.Writes, io.Reads = 0, 0

	clock := newEmitClock(io)
	type cand struct {
		p  *Point
		co []int32
	}
	var cands []cand
	var checks int64

	mDominatedCorner := func(corner []int32) bool {
		for i := range cands {
			checks++
			if paretoDominates(cands[i].co, corner) {
				return true
			}
		}
		return false
	}

	rd := tree.NewReader(io, nil)
	var h bbsHeap
	for _, e := range rd.Root().Entries {
		h.push(e)
	}
	for step := 0; h.len() > 0; step++ {
		if opt.canceled(step) {
			return res
		}
		it := h.pop()
		if it.isPoint {
			if mDominatedCorner(it.e.Lo) {
				res.Metrics.PointsPruned++
				continue
			}
			cands = append(cands, cand{p: &ds.Pts[it.e.ID], co: it.e.Lo})
			continue
		}
		if mDominatedCorner(it.e.Lo) {
			res.Metrics.NodesPruned++
			continue
		}
		node := rd.Open(it.e)
		res.Metrics.NodesOpened++
		for _, e := range node.Entries {
			if !e.IsLeafEntry() && mDominatedCorner(e.Lo) {
				res.Metrics.NodesPruned++
				continue
			}
			h.push(e)
		}
	}

	// Cross-examination: candidates may be actually dominated by other
	// candidates even though no m-dominance was found. This terminal
	// pass is what makes BBS+ expensive and non-progressive.
	for i := range cands {
		if opt.canceled(i) {
			return res
		}
		dominated := false
		for j := range cands {
			if i == j {
				continue
			}
			checks++
			if DominatesUnder(ds.Domains, cands[j].p, cands[i].p) {
				dominated = true
				break
			}
		}
		if !dominated {
			res.SkylineIDs = append(res.SkylineIDs, cands[i].p.ID)
			res.Metrics.Emissions = append(res.Metrics.Emissions, clock.emission(cands[i].p.ID))
		}
	}

	res.Metrics.DomChecks = checks
	res.Metrics.ReadIOs = io.Reads
	res.Metrics.WriteIOs = io.Writes
	res.Metrics.CPU = clock.elapsed()
	return res
}

// buildMTree bulk-loads an R-tree over the transformed m-dominance
// coordinates of the selected points (all points when idxs is nil).
// Leaf entry ids are indexes into ds.Pts.
func buildMTree(ds *Dataset, domains []*poset.Domain, idxs []int32, opt Options, io *rtree.IOCounter) *rtree.Tree {
	dims := ds.NumTO() + 2*ds.NumPO()
	var pts []rtree.Point
	if idxs == nil {
		pts = make([]rtree.Point, len(ds.Pts))
		for i := range ds.Pts {
			pts[i] = rtree.Point{Coords: mCoords(domains, &ds.Pts[i]), ID: int32(i)}
		}
	} else {
		pts = make([]rtree.Point, len(idxs))
		for k, i := range idxs {
			pts[k] = rtree.Point{Coords: mCoords(domains, &ds.Pts[i]), ID: i}
		}
	}
	return rtree.BulkLoad(dims, pts, opt.capacityFor(dims), io)
}
