package core

import (
	"runtime"

	"repro/internal/poset"
)

// LayersUnder assigns every point its skyline-layer depth under the
// given domains: layer 1 is the skyline of pts, layer i the skyline of
// what remains after layers < i are removed (equivalently, the length
// of the longest dominance chain ending at the point — dominance is a
// strict partial order, so the two definitions coincide). Points deeper
// than maxLayer are reported as 0 and their exact depth is not
// computed; maxLayer <= 0 computes every layer. Exact duplicates never
// dominate each other, so all copies of a point share its layer.
//
// Each peel is one full STSS run over the remaining points — the
// sort-based elimination scales far past the all-pairs merge kernel on
// whole tables (the early layers see every row); noKernel selects the
// scalar reference elimination instead, for the differential
// harnesses.
func LayersUnder(domains []*poset.Domain, pts []Point, maxLayer int, noKernel bool) []int32 {
	layers := make([]int32, len(pts))
	alive := make([]int, len(pts))
	for i := range alive {
		alive[i] = i
	}
	workers := runtime.GOMAXPROCS(0)
	for layer := int32(1); len(alive) > 0; layer++ {
		if maxLayer > 0 && int(layer) > maxLayer {
			break
		}
		sub := make([]Point, len(alive))
		for k, i := range alive {
			sub[k] = pts[i]
			sub[k].ID = int32(k)
		}
		var keep []int
		if noKernel {
			// Distinct tags per candidate so the merge pass skips no
			// pair: with every "shard" unique the elimination is a plain
			// skyline.
			tags := make([]int, len(sub))
			for k := range tags {
				tags[k] = k
			}
			keep = MergeSurvivorsRef(domains, sub, tags, workers)
		} else {
			res := STSS(&Dataset{Domains: domains, Pts: sub}, Options{})
			keep = make([]int, len(res.SkylineIDs))
			for j, id := range res.SkylineIDs {
				keep[j] = int(id)
			}
		}
		inLayer := make([]bool, len(alive))
		for _, k := range keep {
			layers[alive[k]] = layer
			inLayer[k] = true
		}
		next := alive[:0]
		for k, i := range alive {
			if !inLayer[k] {
				next = append(next, i)
			}
		}
		alive = next
	}
	return layers
}
