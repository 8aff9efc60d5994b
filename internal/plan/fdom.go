package plan

import (
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/poset"
)

// F-dominance restricted skylines ("flexible skyline" ND operator):
// Query.FWeights gives a per-TO-column lower bound w_d ≥ 0 on the
// scoring weight, defining the constraint family
//
//	W(w) = { v : v_d ≥ w_d on every kept TO column, Σ_kept v_d = 1 }
//
// — the monotone scoring functions f_v(p) = Σ v_d·p.TO[d] the user is
// still undecided between. Point a F-dominates b when f_v(a) ≤ f_v(b)
// for every v ∈ W and the two differ (strictly better at some v, or
// strictly preferred on some kept PO column; PO columns are compared
// exactly as under plain dominance, since the weight family scores only
// the TO columns). The restricted skyline ND is the set of rows not
// F-dominated by any other row.
//
// W(w) is a simplex with vertex set { w + (1−Σw)·e_j } over the kept
// columns j, and f_v(a) ≤ f_v(b) is linear in v, so checking the
// vertices decides the whole family — that is what makes the operator
// cheap. F-dominance is transitive and implied by plain dominance,
// which yields the two load-bearing soundness facts: ND ⊆ SKY (so the
// restriction can run as a post-stage over any skyline result, cached
// or cold), and every F-dominator of an ND-eliminated row has an
// F-dominating representative inside SKY (so eliminating among skyline
// members only — or among gathered cluster candidates after the
// coordinator's dominance merge — loses nothing).

// FVertices returns the extreme weight vectors of the constraint family
// W(weights) restricted to the kept TO columns, each in kept order:
// vertex j concentrates the undistributed mass 1−Σw on column j.
func FVertices(weights []float64, keptTO []int) [][]float64 {
	d := len(keptTO)
	base := make([]float64, d)
	var sum float64
	for j, dim := range keptTO {
		base[j] = weights[dim]
		sum += weights[dim]
	}
	free := 1 - sum
	vtx := make([][]float64, d)
	for j := range vtx {
		v := append([]float64(nil), base...)
		v[j] += free
		vtx[j] = v
	}
	return vtx
}

// FDominates reports whether a F-dominates b under the weight vectors
// vtx (each in kept order, matching the projected points) and the kept
// PO domains. Exported for the coordinator's restricted merge and the
// oracle's sampled-vector check — every tier eliminates with this one
// predicate.
func FDominates(doms []*poset.Domain, vtx [][]float64, a, b *core.Point) bool {
	strict := false
	for _, v := range vtx {
		var sa, sb float64
		for j, w := range v {
			sa += w * float64(a.TO[j])
			sb += w * float64(b.TO[j])
		}
		if sa > sb {
			return false
		}
		if sa < sb {
			strict = true
		}
	}
	for j, av := range a.PO {
		bv := b.PO[j]
		if av == bv {
			continue
		}
		if !doms[j].TPrefers(av, bv) {
			return false
		}
		strict = true
	}
	return strict
}

// FDomSurvivors returns the indexes (in input order) of the points not
// F-dominated by any other point under vtx — the restricted-skyline
// elimination, O(n²) over whatever candidate set the caller narrowed
// down to (skyline members; gathered cluster candidates).
func FDomSurvivors(doms []*poset.Domain, vtx [][]float64, pts []core.Point) []int {
	var out []int
	for i := range pts {
		dominated := false
		for j := range pts {
			if i == j {
				continue
			}
			if FDominates(doms, vtx, &pts[j], &pts[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, i)
		}
	}
	return out
}

// fweightsKey canonically names a restriction for the memo variant
// key: the kept columns' weight bounds, exactly rendered. Appended to
// the base subspace key with restrictedKeyMark, which MemoCache.Advance
// uses to recognize (and drop) restricted entries — they are not
// incrementally maintainable.
func fweightsKey(weights []float64, keptTO []int) string {
	var b strings.Builder
	b.WriteString("fw:")
	for i, d := range keptTO {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatFloat(weights[d], 'g', -1, 64))
	}
	return b.String()
}

// restrictedKeyMark separates the restriction suffix in a memo key.
const restrictedKeyMark = "|fw:"
