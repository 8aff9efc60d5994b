// Package rtree implements an R-tree over integer coordinates with an
// explicit page-IO accounting model, serving as the disk-resident index
// substrate of the skyline algorithms (BBS and its partially-ordered
// variants) and, without a counter, as the in-memory R-tree that sTSS
// and dTSS use for fast t-dominance checks.
//
// The tree stores points (leaf entries with degenerate MBBs) and
// supports Sort-Tile-Recursive bulk loading, Guttman insertion with
// quadratic split, containment range search, and boolean ("is the range
// non-empty") queries with an optional per-entry predicate — the
// Boolean range query of the paper's §IV-B.
//
// IO model: every node visit (root included) counts one page read;
// bulk loading and insertion report page writes. The tree's own
// operations charge the counter it was built with; skyline traversals
// go through a Reader, which charges its own counter and optional LRU
// buffer. A nil counter disables accounting, which is how the
// main-memory trees are run.
package rtree

import "fmt"

// IOCounter accumulates simulated page accesses. The evaluation charges
// a fixed cost per access (5 ms in the paper), so algorithms only need
// the counts.
type IOCounter struct {
	Reads  int64
	Writes int64
}

// Point is an input point: Coords in the index space plus a caller
// identifier (e.g. tuple id or virtual-point id).
type Point struct {
	Coords []int32
	ID     int32
}

// Entry is an R-tree entry. For leaf entries Lo is the point and Hi
// aliases Lo; for internal entries [Lo, Hi] is the child's MBB.
type Entry struct {
	Lo, Hi []int32
	ID     int32 // point id; meaningful for leaf entries only
	child  *Node
}

// IsLeafEntry reports whether e carries a point rather than a child.
func (e Entry) IsLeafEntry() bool { return e.child == nil }

// Node is an R-tree node (one simulated disk page).
type Node struct {
	Leaf    bool
	Entries []Entry
}

// Tree is an R-tree over dims-dimensional integer points.
type Tree struct {
	dims       int
	maxEntries int
	minEntries int
	root       *Node
	height     int // 1 = root is a leaf
	size       int // number of points
	nodes      int // number of nodes (pages)
	io         *IOCounter
}

// New returns an empty tree with the given dimensionality and node
// capacity. Capacity must be at least 2; the minimum fill is 40%.
// io may be nil for an unaccounted in-memory tree.
func New(dims, maxEntries int, io *IOCounter) *Tree {
	if dims < 1 {
		panic("rtree: dims must be >= 1")
	}
	if maxEntries < 2 {
		panic("rtree: capacity must be >= 2")
	}
	min := maxEntries * 2 / 5
	if min < 1 {
		min = 1
	}
	return &Tree{
		dims:       dims,
		maxEntries: maxEntries,
		minEntries: min,
		root:       &Node{Leaf: true},
		height:     1,
		nodes:      1,
		io:         io,
	}
}

// CapacityForPage derives a node fan-out from a simulated page size:
// each entry stores a dims-dimensional MBB of int32 pairs plus a 4-byte
// pointer/id. This is how the experiment harness sizes its trees.
func CapacityForPage(pageSize, dims int) int {
	entryBytes := dims*2*4 + 4
	c := pageSize / entryBytes
	if c < 4 {
		c = 4
	}
	return c
}

// Len returns the number of stored points.
func (t *Tree) Len() int { return t.size }

// Height returns the tree height (1 when the root is a leaf).
func (t *Tree) Height() int { return t.height }

// NodeCount returns the number of nodes, i.e. simulated pages.
func (t *Tree) NodeCount() int { return t.nodes }

// RootBytes returns the root node's serialized size under the cost
// model (one MBB of 2×4-byte coordinates per dimension plus a 4-byte
// pointer per entry) — used to compute packed-root page charges.
func (t *Tree) RootBytes() int {
	return len(t.root.Entries) * (t.dims*8 + 4)
}

// MinDistL1 returns the L1 mindist of an entry's MBB to the origin —
// the sum of its lower coordinates. All index spaces in this repository
// put the most preferable point at the origin, so this is the BBS
// visiting priority.
func MinDistL1(e Entry) int64 {
	var s int64
	for _, c := range e.Lo {
		s += int64(c)
	}
	return s
}

func (t *Tree) checkDims(lo, hi []int32) {
	if len(lo) != t.dims || len(hi) != t.dims {
		panic(fmt.Sprintf("rtree: query dims %d/%d, tree dims %d", len(lo), len(hi), t.dims))
	}
}

// intersects reports whether the entry's MBB intersects [lo, hi].
func intersects(e Entry, lo, hi []int32) bool {
	for d := range lo {
		if e.Hi[d] < lo[d] || e.Lo[d] > hi[d] {
			return false
		}
	}
	return true
}

// insideAll reports whether a leaf entry's point lies inside [lo, hi].
func insideAll(e Entry, lo, hi []int32) bool {
	for d := range lo {
		if e.Lo[d] < lo[d] || e.Lo[d] > hi[d] {
			return false
		}
	}
	return true
}

// SearchRange visits every point inside the closed box [lo, hi], calling
// fn with the entry; fn returning false stops the search early. Node
// visits are charged to the IO counter.
func (t *Tree) SearchRange(lo, hi []int32, fn func(e Entry) bool) {
	t.checkDims(lo, hi)
	t.searchNode(t.root, lo, hi, fn)
}

// chargeRead accounts one node visit of the tree's own operations.
func (t *Tree) chargeRead() {
	if t.io != nil {
		t.io.Reads++
	}
}

func (t *Tree) searchNode(n *Node, lo, hi []int32, fn func(e Entry) bool) bool {
	t.chargeRead()
	for _, e := range n.Entries {
		if !intersects(e, lo, hi) {
			continue
		}
		if n.Leaf {
			if insideAll(e, lo, hi) && !fn(e) {
				return false
			}
		} else if !t.searchNode(e.child, lo, hi, fn) {
			return false
		}
	}
	return true
}

// RangeNonEmpty is the Boolean range query: true iff at least one point
// lies inside the closed box [lo, hi]. It terminates on the first hit.
func (t *Tree) RangeNonEmpty(lo, hi []int32) bool {
	found := false
	t.SearchRange(lo, hi, func(Entry) bool {
		found = true
		return false
	})
	return found
}

// RangeExists is a Boolean range query with a per-point predicate: true
// iff some point inside [lo, hi] satisfies pred. Used for the strictness
// tests of exact t-dominance (see internal/core).
func (t *Tree) RangeExists(lo, hi []int32, pred func(e Entry) bool) bool {
	found := false
	t.SearchRange(lo, hi, func(e Entry) bool {
		if pred(e) {
			found = true
			return false
		}
		return true
	})
	return found
}

// All visits every stored point (in tree order) without charging IOs;
// used by tests to verify structure against linear scans.
func (t *Tree) All(fn func(e Entry)) {
	var walk func(n *Node)
	walk = func(n *Node) {
		for _, e := range n.Entries {
			if n.Leaf {
				fn(e)
			} else {
				walk(e.child)
			}
		}
	}
	walk(t.root)
}

// mbbOf computes the MBB of a node's entries into fresh slices.
func mbbOf(n *Node, dims int) ([]int32, []int32) {
	lo := make([]int32, dims)
	hi := make([]int32, dims)
	for d := 0; d < dims; d++ {
		lo[d] = n.Entries[0].Lo[d]
		hi[d] = n.Entries[0].Hi[d]
	}
	for _, e := range n.Entries[1:] {
		for d := 0; d < dims; d++ {
			if e.Lo[d] < lo[d] {
				lo[d] = e.Lo[d]
			}
			if e.Hi[d] > hi[d] {
				hi[d] = e.Hi[d]
			}
		}
	}
	return lo, hi
}
