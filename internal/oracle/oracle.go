// Package oracle holds the brute-force references that tests in several
// packages check the serving code against: the four top-k rankings, the
// dp-idp k-histograms behind one of them, and the |t − q| ideal-point
// transform. Everything takes plain values (domains, rows, ids, k, an
// ideal point) and is written to be obviously right rather than fast:
// O(n²) scans and full sorts, sharing no code with the serving paths it
// checks. Only tests import it.
//
// The skyline reference itself is core.NaiveSkylineUnder.
package oracle

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/poset"
)

// Rank orders sky, ids of rows, by the named ranking (plan's rank names)
// and keeps the best k: a full sort by ascending score, ties by
// ascending id, truncated to k. doms are the PO domains of the rows'
// columns. ideal is the "ideal" ranking's reference point in the rows'
// TO order (nil is the origin); the other rankings ignore it.
//
//   - "domcount": descending number of rows a member dominates;
//   - "dpidp": descending dp-idp score of the member's k-histogram;
//   - "ideal": ascending L1 distance to ideal over the TO columns plus,
//     per PO column, the number of values t-preferred to the row's;
//   - "layer": k is a depth bound, and sky is not read. The answer is
//     every row of skyline layers 1..k, in (layer, id) order, where
//     layer i is the skyline of the rows no earlier layer holds.
func Rank(rank string, doms []*poset.Domain, rows []core.Point, sky []int32, k int, ideal []int64) ([]int32, error) {
	byID := make(map[int32]core.Point, len(rows))
	for _, r := range rows {
		byID[r.ID] = r
	}
	members := make([]core.Point, len(sky))
	for i, id := range sky {
		members[i] = byID[id]
	}
	scores := make([]float64, len(sky))
	switch rank {
	case "domcount":
		for i := range members {
			for j := range rows {
				if core.DominatesUnder(doms, &members[i], &rows[j]) {
					scores[i]--
				}
			}
		}
	case "dpidp":
		for i, h := range DPIDPHists(doms, members, rows) {
			scores[i] = -core.DPIDPScoreFromHist(h)
		}
	case "ideal":
		for i, p := range IdealPoints(members, ideal) {
			for _, v := range p.TO {
				scores[i] += float64(v)
			}
			for j, v := range p.PO {
				for w := range int32(doms[j].Size()) {
					if doms[j].TPrefers(w, v) {
						scores[i]++
					}
				}
			}
		}
	case "layer":
		var ids []int32
		var depth []float64
		alive := slices.Clone(rows)
		for layer := 1; layer <= k && len(alive) > 0; layer++ {
			in := core.NaiveSkylineUnder(doms, alive)
			for _, id := range in {
				ids, depth = append(ids, id), append(depth, float64(layer))
			}
			alive = slices.DeleteFunc(alive, func(p core.Point) bool { return slices.Contains(in, p.ID) })
		}
		return best(ids, depth, len(ids)), nil
	default:
		return nil, fmt.Errorf("oracle: unknown rank %q", rank)
	}
	return best(sky, scores, k), nil
}

// best sorts ids by ascending score, ties by ascending id, and keeps the
// first k; scores[i] is ids[i]'s score.
func best(ids []int32, scores []float64, k int) []int32 {
	order := make([]int, len(ids))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Or(cmp.Compare(scores[a], scores[b]), cmp.Compare(ids[a], ids[b]))
	})
	var out []int32
	for _, i := range order[:max(min(k, len(order)), 0)] {
		out = append(out, ids[i])
	}
	return out
}

// DPIDPHists is the dp-idp k-histogram of each member against rows:
// hists[i][k] counts the rows that members[i] dominates and that
// exactly k members dominate. A member that dominates nothing has a nil
// histogram.
func DPIDPHists(doms []*poset.Domain, members, rows []core.Point) []map[int32]int64 {
	hists := make([]map[int32]int64, len(members))
	var by []int
	for r := range rows {
		by = by[:0]
		for i := range members {
			if core.DominatesUnder(doms, &members[i], &rows[r]) {
				by = append(by, i)
			}
		}
		for _, i := range by {
			if hists[i] == nil {
				hists[i] = map[int32]int64{}
			}
			hists[i][int32(len(by))]++
		}
	}
	return hists
}

// IdealPoints re-centres pts on the ideal point q (in the points' TO
// order; nil is the origin): each TO value t becomes |t − q|, the
// coordinates of §V-B's fully dynamic skyline. Ids and PO values are
// kept, the PO slices shared.
func IdealPoints(pts []core.Point, q []int64) []core.Point {
	out := make([]core.Point, len(pts))
	for i, p := range pts {
		to := make([]int32, len(p.TO))
		for d, v := range p.TO {
			diff := int64(v)
			if q != nil {
				diff -= q[d]
			}
			to[d] = int32(max(diff, -diff))
		}
		out[i] = core.Point{ID: p.ID, TO: to, PO: p.PO}
	}
	return out
}
