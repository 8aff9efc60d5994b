package poset

import "math/bits"

// Reachability is a dense transitive-closure oracle over a DAG, stored
// as one bitset row per value. It costs O(V·E/64) to build and O(1) to
// query, and serves as the ground truth that the interval encoding is
// validated against (TPrefers ⟺ Reaches) and as the exact dominance
// oracle for the naive skyline used in tests.
type Reachability struct {
	n     int
	words int
	bits  []uint64 // row-major: rows of `words` uint64s
}

// NewReachability computes the transitive closure of dag. The DAG must
// be acyclic (panics on cycles, which NewDomain would have rejected
// earlier anyway).
func NewReachability(dag *DAG) *Reachability {
	order, err := dag.TopologicalOrder()
	if err != nil {
		panic(err)
	}
	n := dag.N()
	words := (n + 63) / 64
	r := &Reachability{n: n, words: words, bits: make([]uint64, n*words)}
	// Reverse topological order: successors' rows are complete first.
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		row := r.row(v)
		for _, c := range dag.Out(int(v)) {
			row[c/64] |= 1 << (uint(c) % 64)
			crow := r.row(c)
			for w := 0; w < words; w++ {
				row[w] |= crow[w]
			}
		}
	}
	return r
}

func (r *Reachability) row(v int32) []uint64 {
	return r.bits[int(v)*r.words : (int(v)+1)*r.words]
}

// Row exposes v's closure row (bit y set ⟺ x reaches y) for bulk
// consumers — the dominance kernel walks it to file a member under
// every value it is at least as good as. The slice aliases the
// closure; callers must not modify it.
func (r *Reachability) Row(v int32) []uint64 { return r.row(v) }

// Reaches reports whether a directed path x→y exists (x strictly
// preferred to y). Reaches(x, x) is false.
func (r *Reachability) Reaches(x, y int32) bool {
	return r.bits[int(x)*r.words+int(y)/64]&(1<<(uint(y)%64)) != 0
}

// Leq reports x == y or Reaches(x, y).
func (r *Reachability) Leq(x, y int32) bool {
	return x == y || r.Reaches(x, y)
}

// Count returns the number of values strictly reachable from x.
func (r *Reachability) Count(x int32) int {
	c := 0
	for _, w := range r.row(x) {
		c += bits.OnesCount64(w)
	}
	return c
}

// Transpose returns the reversed closure: bit x of the transpose's row
// y is set iff x reaches y. Row y is therefore y's *predecessor* set —
// the values at least as good as y — which the dominance kernel walks
// to file a member under every value it is no better than.
func (r *Reachability) Transpose() *Reachability {
	t := &Reachability{n: r.n, words: r.words, bits: make([]uint64, len(r.bits))}
	for x := 0; x < r.n; x++ {
		row := r.row(int32(x))
		for w, word := range row {
			for word != 0 {
				j := bits.TrailingZeros64(word)
				word &^= 1 << uint(j)
				y := w*64 + j
				t.bits[y*t.words+x/64] |= 1 << (uint(x) % 64)
			}
		}
	}
	return t
}
