package core

import (
	"sort"

	"repro/internal/poset"
)

// This file is the delta-driven skyline maintainer: given a memoised
// skyline of the old row set and the Delta an ApplyBatch produced, it
// re-certifies the skyline of the new row set instead of recomputing it
// from cold. The cost model is asymmetric by construction:
//
//   - A removed non-member cannot change the skyline: it dominated
//     nothing that mattered. Free.
//   - An added row is probed against the maintained members with the
//     columnar dominance kernel; a dominated add cannot change the
//     result, a surviving add joins and evicts the members it
//     dominates.
//   - A removed *member* may have been the only dominator of rows it
//     exclusively dominated, so those rows are recomputed: the
//     candidates (survivors the removed members dominated) are filtered
//     against the surviving skyline with the in-memory R-tree checker
//     (paper §IV-B) and the few that survive are promoted through the
//     same kernel probe as adds.
//
// Soundness of the candidate set: every old non-member is dominated by
// some old skyline member (maximality + transitivity). If that member
// survived, the row stays dominated and can be skipped; if every such
// member was removed, the row is by definition dominated by a removed
// member, so scanning the removed members' dominated regions finds it.
// The new skyline is therefore exactly the skyline of
// survivors ∪ adds ∪ promotion-candidates, which the seeded kernel
// window computes BNL-style.

// MaintainChurnFraction is the churn threshold of skyline maintenance:
// when a batch touches more than this fraction of the old rows,
// maintenance would approach the cost of a cold recompute (the
// promotion scan alone is O(N·removedMembers)), so the maintainer
// refuses and the caller falls back to recomputing on demand.
const MaintainChurnFraction = 0.10

// MaintainChurnFloor exempts small batches from the fractional
// threshold regardless of table size, so maintenance still engages on
// small tables where any batch exceeds 10% of the rows.
const MaintainChurnFloor = 64

// MaintainStats reports what one MaintainSkyline call did.
type MaintainStats struct {
	// Promotions is the number of rows that entered the skyline because
	// a removed member no longer dominates them (they are neither old
	// members nor adds).
	Promotions int
	// Probes is the number of candidate rows (adds + promotion
	// candidates) probed against the maintained window.
	Probes int
}

// MaintainSkyline advances the memoised skyline oldSky (row indexes of
// oldDS) across delta to the skyline of newDS, under the kept-dimension
// projection keptTO/keptPO (nil/nil = full dimensionality — the lists
// index into the datasets' TO attributes and Domains respectively, in
// Subspace's canonical ascending form). The returned ids are new row
// indexes in ascending order.
//
// The final return is false when the batch's churn exceeds the
// maintenance threshold; the caller should drop the memo entry and let
// the next query recompute from cold.
func MaintainSkyline(oldDS, newDS *Dataset, delta *Delta, oldSky []int32, keptTO, keptPO []int) ([]int32, MaintainStats, bool) {
	var st MaintainStats
	newN := len(newDS.Pts)
	removedRows := delta.OldLen() - (newN - delta.Added)
	churn := removedRows + delta.Added
	if churn > MaintainChurnFloor && float64(churn) > MaintainChurnFraction*float64(delta.OldLen()) {
		return nil, st, false
	}
	if newN == 0 {
		// Everything removed: the empty skyline needs no kernel pass
		// (and an empty dataset has no dimensionality to build one over).
		return []int32{}, st, true
	}

	domains, nTO := maintainDims(newDS, keptTO, keptPO)
	prj := projector{keptTO: keptTO, keptPO: keptPO, ident: keptTO == nil && keptPO == nil}

	// Split the old skyline into survivors (new indexes) and removed
	// members (old points).
	survivors := make([]int32, 0, len(oldSky))
	isMember := make([]bool, newN)
	var removedMembers []int32 // old row indexes
	for _, id := range oldSky {
		ni := delta.OldToNew[id]
		if ni < 0 {
			removedMembers = append(removedMembers, id)
			continue
		}
		survivors = append(survivors, ni)
		isMember[ni] = true
	}
	sort.Slice(survivors, func(i, j int) bool { return survivors[i] < survivors[j] })

	// Promotion candidates: surviving non-members a removed member
	// dominated, minus those the R-tree over the surviving skyline
	// proves still dominated.
	var promos []int32
	if len(removedMembers) > 0 {
		removed := make([]Point, len(removedMembers))
		for i, id := range removedMembers {
			removed[i] = prj.point(&oldDS.Pts[id])
		}
		ck := newMemChecker(domains, nTO, false)
		for _, ni := range survivors {
			p := prj.point(&newDS.Pts[ni])
			ck.add(&p)
		}
		oldRows := newN - delta.Added
		var cand Point
		for ni := 0; ni < oldRows; ni++ {
			if isMember[ni] {
				continue
			}
			cand = prj.pointInto(&newDS.Pts[ni], cand)
			byRemoved := false
			for i := range removed {
				if DominatesUnder(domains, &removed[i], &cand) {
					byRemoved = true
					break
				}
			}
			if !byRemoved {
				continue
			}
			if ck.dominatedPoint(cand.TO, cand.PO) {
				continue
			}
			promos = append(promos, int32(ni))
		}
	}

	// Seeded kernel window: survivors first (mutually non-dominated, so
	// admitted unprobed), then every candidate offered (dominated
	// candidates are discarded; surviving ones join and evict the members
	// they dominate). Seeding leaves the window without member rows:
	// hundreds of seeds would each file themselves under every value
	// they reach, for the handful of offers a batch makes.
	w := NewWindow(domains, nTO, 0, false)
	var scratch Point
	for _, ni := range survivors {
		scratch = prj.pointInto(&newDS.Pts[ni], scratch)
		w.seed(scratch.TO, scratch.PO, ni)
	}
	offer := func(ni int32) {
		scratch = prj.pointInto(&newDS.Pts[ni], scratch)
		st.Probes++
		w.Offer(scratch.TO, scratch.PO, ni, -1)
	}
	for _, ni := range promos {
		offer(ni)
	}
	for ni := newN - delta.Added; ni < newN; ni++ {
		offer(int32(ni))
	}
	w.Close()

	ids := w.aliveIDs(make([]int32, 0, len(survivors)))
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	oldRows := int32(newN - delta.Added)
	for _, id := range ids {
		if id < oldRows && !isMember[id] {
			st.Promotions++
		}
	}
	return ids, st, true
}

// Delta describes a batched row mutation in the terms delta-driven
// maintenance needs: how old row indexes map to new ones, and how many
// rows were appended. The new dataset is the old one with the removed
// rows dropped, survivors renumbered to consecutive indexes in their
// original order, and the added rows at the tail.
type Delta struct {
	// OldToNew maps every old row index to its new index, -1 for
	// removed rows. Its length must equal the old row count.
	OldToNew []int32
	// Added is the number of rows appended at the tail of the new
	// dataset (new indexes newN-Added … newN-1).
	Added int
}

// OldLen returns the row count the delta maps from.
func (d *Delta) OldLen() int { return len(d.OldToNew) }

// maintainDims resolves the kept PO domains and TO arity of a
// maintenance pass.
func maintainDims(ds *Dataset, keptTO, keptPO []int) ([]*poset.Domain, int) {
	if keptTO == nil && keptPO == nil {
		return ds.Domains, ds.NumTO()
	}
	domains := make([]*poset.Domain, len(keptPO))
	for j, d := range keptPO {
		domains[j] = ds.Domains[d]
	}
	return domains, len(keptTO)
}

// projector maps full-dimensional points into the kept dimensions
// without copying when the projection is the identity.
type projector struct {
	keptTO, keptPO []int
	ident          bool
}

// point returns a projected copy of p (aliasing p's slices when the
// projection is the identity).
func (pj projector) point(p *Point) Point {
	return pj.pointInto(p, Point{})
}

// pointInto projects p reusing dst's backing slices.
func (pj projector) pointInto(p *Point, dst Point) Point {
	if pj.ident {
		return Point{ID: p.ID, TO: p.TO, PO: p.PO}
	}
	dst.ID = p.ID
	dst.TO = dst.TO[:0]
	for _, d := range pj.keptTO {
		dst.TO = append(dst.TO, p.TO[d])
	}
	dst.PO = dst.PO[:0]
	for _, d := range pj.keptPO {
		dst.PO = append(dst.PO, p.PO[d])
	}
	return dst
}
