package plan

// SelectK returns the indexes of the k least of n elements under less,
// least first, in O(n log k) time and O(k) space: a bounded max-heap
// keeps the k least seen so far, and a heap sort orders them at the end.
// less must be a strict total order on the indexes (ties broken down
// to something unique), or equal elements come back in no fixed order.
// k above n keeps all n; k at or below 0 keeps none.
func SelectK(n, k int, less func(a, b int) bool) []int {
	k = max(min(k, n), 0)
	h := make([]int, 0, k) // h[0] is the greatest of those kept
	for i := range n {
		switch {
		case len(h) < k:
			h = append(h, i)
			for c := len(h) - 1; c > 0; {
				p := (c - 1) / 2
				if !less(h[p], h[c]) {
					break
				}
				h[p], h[c] = h[c], h[p]
				c = p
			}
		case k > 0 && less(i, h[0]):
			h[0] = i
			siftDown(h, less)
		}
	}
	for end := len(h) - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		siftDown(h[:end], less)
	}
	return h
}

// siftDown restores the max-heap order of h after its root changed.
func siftDown(h []int, less func(a, b int) bool) {
	for p := 0; ; {
		c := 2*p + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && less(h[c], h[r]) {
			c = r
		}
		if !less(h[p], h[c]) {
			return
		}
		h[p], h[c] = h[c], h[p]
		p = c
	}
}

// sortByScore orders ids by ascending score (id-ascending on ties) and
// keeps the first k; scores[i] is ids[i]'s score. It selects the k
// rather than sorting all of ids.
func sortByScore(ids []int32, scores []float64, k int) []int32 {
	if len(ids) == 0 {
		return nil
	}
	best := SelectK(len(ids), k, func(a, b int) bool {
		if scores[a] != scores[b] {
			return scores[a] < scores[b]
		}
		return ids[a] < ids[b]
	})
	out := make([]int32, len(best))
	for i, j := range best {
		out[i] = ids[j]
	}
	return out
}
