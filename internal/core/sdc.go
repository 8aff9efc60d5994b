package core

import (
	"time"

	"repro/internal/rtree"
)

// SDC implements the two-strata baseline of Chan et al. (§II-C): BBS
// over the transformed m-dominance space, where points whose PO values
// are all *completely covered* (uncovered level 0) can be output as
// soon as they survive the m-dominance check — among such points
// m-dominance coincides with actual dominance — while partially covered
// points are withheld as candidates and cross-examined at the end.
func SDC(ds *Dataset, opt Options) *Result {
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
	var confirmed, held []cand
	var checks int64

	mDominatedCorner := func(corner []int32) bool {
		for i := range confirmed {
			checks++
			if paretoDominates(confirmed[i].co, corner) {
				return true
			}
		}
		for i := range held {
			checks++
			if paretoDominates(held[i].co, corner) {
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
			c := cand{p: &ds.Pts[it.e.ID], co: it.e.Lo}
			if completelyCovered(ds.Domains, c.p) {
				// Safe to output: any actual dominator of a completely
				// covered point reaches it through tree edges only, so
				// it would have m-dominated it already.
				confirmed = append(confirmed, c)
				res.SkylineIDs = append(res.SkylineIDs, c.p.ID)
				res.Metrics.Emissions = append(res.Metrics.Emissions, clock.emission(c.p.ID))
			} else {
				held = append(held, c)
			}
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

	// Terminal cross-examination of the partially covered stratum.
	for i := range held {
		if opt.canceled(i) {
			return res
		}
		dominated := false
		for j := range confirmed {
			checks++
			if DominatesUnder(ds.Domains, confirmed[j].p, held[i].p) {
				dominated = true
				break
			}
		}
		if !dominated {
			for j := range held {
				if i == j {
					continue
				}
				checks++
				if DominatesUnder(ds.Domains, held[j].p, held[i].p) {
					dominated = true
					break
				}
			}
		}
		if !dominated {
			res.SkylineIDs = append(res.SkylineIDs, held[i].p.ID)
			res.Metrics.Emissions = append(res.Metrics.Emissions, clock.emission(held[i].p.ID))
		}
	}

	res.Metrics.DomChecks = checks
	res.Metrics.ReadIOs = io.Reads
	res.Metrics.WriteIOs = io.Writes
	res.Metrics.CPU = clock.elapsed()
	return res
}
