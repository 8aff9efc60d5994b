package core

import (
	"maps"
	"sort"
	"sync"
)

// ScoreIndex is the per-table dp-idp score structure: for every skyline
// member m it keeps the k-histogram h_m[k] = #{rows t : m dominates t
// and exactly k skyline members dominate t}. The dp-idp score of m is
// then Σ_k h_m[k]/k — each dominated row contributes 1/k(t) split over
// its k dominators, so rows few members can "explain" weigh more.
// Histograms are integers, which makes the index exactly maintainable
// under mutation (increment/decrement) and the materialized float64
// score bit-reproducible: DPIDPScoreFromHist sums in ascending-k order
// everywhere (build, advance, per-shard combine), so index-backed,
// cold-computed and cluster-combined scores are comparable with ==.
//
// A published index is immutable and shared by concurrent readers; its
// scores are materialized once, on the first read.
type ScoreIndex struct {
	members []int32           // skyline member ids, ascending
	hists   []map[int32]int64 // parallel to members; k -> count, counts > 0

	scoresOnce sync.Once
	scores     []float64 // parallel to members; set by Scores
}

// NewScoreIndex builds an index from per-member k-histograms: hists is
// parallel to members (any order; a nil histogram dominates nothing).
// The maps are retained, not copied.
func NewScoreIndex(members []int32, hists []map[int32]int64) *ScoreIndex {
	order := make([]int, len(members))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return members[order[a]] < members[order[b]] })
	ix := &ScoreIndex{members: make([]int32, len(members)), hists: make([]map[int32]int64, len(members))}
	for i, o := range order {
		h := hists[o]
		if h == nil {
			h = map[int32]int64{}
		}
		ix.members[i], ix.hists[i] = members[o], h
	}
	return ix
}

// BuildScoreIndex computes the full-dimension dp-idp index for the
// skyline sky of ds from scratch: one bitmap dominator scan (DomScan)
// collecting, per row, the set of members dominating it.
func BuildScoreIndex(ds *Dataset, sky []int32) *ScoreIndex {
	ix := NewScoreIndex(sky, make([]map[int32]int64, len(sky)))
	scan := ix.memberScan(ds)
	defer scan.Close()
	for i := range ds.Pts {
		doms := scan.Dominators(ds.Pts[i].TO, ds.Pts[i].PO)
		for _, j := range doms {
			ix.hists[j][int32(len(doms))]++
		}
	}
	return ix
}

// memberScan loads the indexed members' rows of ds into a dominator
// scan, so a scan result indexes members and hists directly.
func (ix *ScoreIndex) memberScan(ds *Dataset) *DomScan {
	scan := NewDomScan(ds.Domains, ds.NumTO(), len(ix.members))
	for _, m := range ix.members {
		scan.Add(ds.Pts[m].TO, ds.Pts[m].PO)
	}
	return scan
}

// Members returns the indexed skyline member ids, ascending. The slice
// is shared; do not mutate.
func (ix *ScoreIndex) Members() []int32 { return ix.members }

// Len returns the number of indexed members.
func (ix *ScoreIndex) Len() int { return len(ix.members) }

// Hist returns member i's k-histogram (shared; do not mutate).
func (ix *ScoreIndex) Hist(i int) map[int32]int64 { return ix.hists[i] }

// Scores returns the dp-idp score of every indexed member, parallel to
// Members. They are materialized on the first call and shared after
// that, so an index that is never read pays nothing; do not mutate.
func (ix *ScoreIndex) Scores() []float64 {
	ix.scoresOnce.Do(func() {
		scores := make([]float64, len(ix.hists))
		for i, h := range ix.hists {
			scores[i] = DPIDPScoreFromHist(h)
		}
		ix.scores = scores
	})
	return ix.scores
}

// DPIDPScoreFromHist materializes a k-histogram into the dp-idp score
// Σ_k count[k]/k, summing in ascending-k order so every evaluation site
// produces the identical float64.
func DPIDPScoreFromHist(h map[int32]int64) float64 {
	if len(h) == 0 {
		return 0
	}
	ks := make([]int32, 0, len(h))
	for k := range h {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	counts := make([]int64, len(ks))
	for i, k := range ks {
		counts[i] = h[k]
	}
	return DPIDPScoreFromRuns(ks, counts)
}

// DPIDPScoreFromRuns is DPIDPScoreFromHist over a histogram already
// laid out as ascending-k runs: counts[i] rows have exactly ks[i]
// dominators.
func DPIDPScoreFromRuns(ks []int32, counts []int64) float64 {
	var s float64
	for i, k := range ks {
		s += float64(counts[i]) / float64(k)
	}
	return s
}

// Advance maintains the index across a batch mutation: oldDS→newDS with
// delta's row renumbering, where the index covers oldDS's skyline and
// newSky is newDS's (already maintained) skyline. It returns the
// advanced index, or ok=false when the membership churn exceeds the
// maintenance threshold and a cold rebuild is the better deal.
//
// The incremental argument: a surviving row's dominator set — and hence
// its k and its 1/k contributions — can only change if some *changed*
// member (left the skyline, joined it, or was removed from the table)
// dominates it under either snapshot. Old members never dominate each
// other, so a demoted member is dominated by a *new* member and a
// promoted row was dominated by a *departed* one — both are caught by
// the changed-member dominance probe. Every other surviving row keeps
// its exact integer contributions; only affected rows are re-scanned
// (subtract old-side contributions, add new-side), plus pure
// subtraction for removed rows and pure addition for added ones.
func (ix *ScoreIndex) Advance(oldDS, newDS *Dataset, delta *Delta, newSky []int32) (*ScoreIndex, bool) {
	if delta == nil || len(delta.OldToNew) != len(oldDS.Pts) {
		return nil, false
	}
	firstAdded := len(newDS.Pts) - delta.Added

	adv := NewScoreIndex(newSky, make([]map[int32]int64, len(newSky)))
	slot := make(map[int32]int, len(adv.members))
	for s, m := range adv.members {
		slot[m] = s
	}

	// carry[j] is old member j's slot in adv, -1 when it departed the
	// skyline (removed row or demoted); carried members start from a copy
	// of their histogram. Changed members — departed ones, and those
	// that joined (added row or promoted) — drive the affected-row probe;
	// the snapshot each point lives in supplies it.
	changed := NewDomScan(newDS.Domains, newDS.NumTO(), 0)
	defer changed.Close()
	nChanged := 0
	carry := make([]int, len(ix.members))
	carried := make([]bool, len(adv.members))
	for j, m := range ix.members {
		carry[j] = -1
		if n := delta.OldToNew[m]; n >= 0 {
			if s, ok := slot[n]; ok {
				carry[j], carried[s] = s, true
				adv.hists[s] = maps.Clone(ix.hists[j])
				continue
			}
		}
		changed.Add(oldDS.Pts[m].TO, oldDS.Pts[m].PO)
		nChanged++
	}
	for s, m := range adv.members {
		if !carried[s] {
			changed.Add(newDS.Pts[m].TO, newDS.Pts[m].PO)
			nChanged++
		}
	}
	limit := MaintainChurnFloor
	if f := int(MaintainChurnFraction * float64(len(newSky))); f > limit {
		limit = f
	}
	if nChanged > limit {
		return nil, false
	}

	// Subtract the old-side contributions of removed rows and of
	// surviving rows whose dominator set may have changed; add the
	// new-side contributions back.
	oldScan, newScan := ix.memberScan(oldDS), adv.memberScan(newDS)
	defer oldScan.Close()
	defer newScan.Close()
	subOld := func(t *Point) bool {
		doms := oldScan.Dominators(t.TO, t.PO)
		k := int32(len(doms))
		for _, j := range doms {
			s := carry[j]
			if s < 0 {
				continue // member departed: its histogram is not carried over
			}
			h := adv.hists[s]
			h[k]--
			switch {
			case h[k] == 0:
				delete(h, k)
			case h[k] < 0:
				return false
			}
		}
		return true
	}

	// Removed rows: old-side subtraction only.
	for o, n := range delta.OldToNew {
		if n < 0 && !subOld(&oldDS.Pts[o]) {
			return nil, false
		}
	}
	// Affected new rows: added rows always; surviving rows when a
	// changed member dominates them under either snapshot (surviving
	// rows keep their values, so the new-snapshot probe covers both, and
	// the row itself stands in for its old-snapshot copy).
	for i := range newDS.Pts {
		t := &newDS.Pts[i]
		if i < firstAdded {
			if !changed.Any(t.TO, t.PO) {
				continue
			}
			if !subOld(t) {
				return nil, false
			}
		}
		doms := newScan.Dominators(t.TO, t.PO)
		for _, s := range doms {
			adv.hists[s][int32(len(doms))]++
		}
	}
	return adv, true
}
