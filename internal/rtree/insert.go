package rtree

// Insert adds a point using Guttman's algorithm (least-enlargement leaf
// choice, quadratic split). Each node touched on the way down is charged
// one read; each node written (the modified leaf, any split siblings and
// updated ancestors) is charged one write. The in-memory dominance trees
// run with a nil counter, so there accounting is free.
//
// The point's coordinate slice is referenced, not copied.
func (t *Tree) Insert(p Point) {
	if len(p.Coords) != t.dims {
		panic("rtree: point dimensionality mismatch")
	}
	if split := t.insert(t.root, Entry{Lo: p.Coords, Hi: p.Coords, ID: p.ID}, t.height); split != nil {
		// The split reached the root: grow the tree by one level.
		lo1, hi1 := mbbOf(t.root, t.dims)
		lo2, hi2 := mbbOf(split, t.dims)
		t.root = &Node{Entries: []Entry{
			{Lo: lo1, Hi: hi1, child: t.root},
			{Lo: lo2, Hi: hi2, child: split},
		}}
		t.height++
		t.nodes++
		t.chargeWrites(1)
	}
	t.size++
}

// insert places e in the subtree rooted at n (level counts down to 1 =
// leaf), returning the new sibling if n was split.
func (t *Tree) insert(n *Node, e Entry, level int) *Node {
	t.chargeRead()
	if level == 1 {
		n.Entries = append(n.Entries, e)
		t.chargeWrites(1)
		if len(n.Entries) > t.maxEntries {
			return t.split(n)
		}
		return nil
	}
	i := chooseSubtree(n, e)
	child := n.Entries[i].child
	split := t.insert(child, e, level-1)
	n.Entries[i].Lo, n.Entries[i].Hi = mbbOf(child, t.dims)
	t.chargeWrites(1)
	if split != nil {
		lo, hi := mbbOf(split, t.dims)
		n.Entries = append(n.Entries, Entry{Lo: lo, Hi: hi, child: split})
		if len(n.Entries) > t.maxEntries {
			return t.split(n)
		}
	}
	return nil
}

// chooseSubtree picks the child needing least area enlargement to cover
// e, breaking ties by smallest area.
func chooseSubtree(n *Node, e Entry) int {
	best := 0
	bestEnl, bestArea := enlargement(n.Entries[0], e), area(n.Entries[0])
	for i := 1; i < len(n.Entries); i++ {
		enl, a := enlargement(n.Entries[i], e), area(n.Entries[i])
		if enl < bestEnl || (enl == bestEnl && a < bestArea) {
			best, bestEnl, bestArea = i, enl, a
		}
	}
	return best
}

// area computes the MBB volume in float64 (extents can overflow int64
// for high-dimensional integer domains).
func area(e Entry) float64 {
	a := 1.0
	for d := range e.Lo {
		a *= float64(e.Hi[d]-e.Lo[d]) + 1
	}
	return a
}

// enlargement is the volume growth of e's MBB needed to include x.
func enlargement(e, x Entry) float64 {
	a := 1.0
	for d := range e.Lo {
		lo, hi := e.Lo[d], e.Hi[d]
		if x.Lo[d] < lo {
			lo = x.Lo[d]
		}
		if x.Hi[d] > hi {
			hi = x.Hi[d]
		}
		a *= float64(hi-lo) + 1
	}
	return a - area(e)
}

// split performs Guttman's quadratic split on an overfull node,
// leaving one group in n and returning the other as a new sibling.
func (t *Tree) split(n *Node) *Node {
	entries := n.Entries
	// Pick the two seeds wasting the most area if paired.
	s1, s2 := 0, 1
	worst := -1.0
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			d := pairWaste(entries[i], entries[j])
			if d > worst {
				worst, s1, s2 = d, i, j
			}
		}
	}
	g1 := &Node{Leaf: n.Leaf, Entries: []Entry{entries[s1]}}
	g2 := &Node{Leaf: n.Leaf, Entries: []Entry{entries[s2]}}
	lo1, hi1 := mbbOf(g1, t.dims)
	lo2, hi2 := mbbOf(g2, t.dims)
	rest := make([]Entry, 0, len(entries)-2)
	for i, e := range entries {
		if i != s1 && i != s2 {
			rest = append(rest, e)
		}
	}
	for len(rest) > 0 {
		// Force-assign if a group must take everything left to reach
		// the minimum fill.
		if len(g1.Entries)+len(rest) == t.minEntries {
			g1.Entries = append(g1.Entries, rest...)
			rest = nil
			break
		}
		if len(g2.Entries)+len(rest) == t.minEntries {
			g2.Entries = append(g2.Entries, rest...)
			rest = nil
			break
		}
		// Pick the entry with the greatest preference between groups.
		bi, bd := -1, -1.0
		var toG1 bool
		for i, e := range rest {
			d1 := enlargement(Entry{Lo: lo1, Hi: hi1}, e)
			d2 := enlargement(Entry{Lo: lo2, Hi: hi2}, e)
			diff := d1 - d2
			if diff < 0 {
				diff = -diff
			}
			if diff > bd {
				bd, bi, toG1 = diff, i, d1 < d2
			}
		}
		e := rest[bi]
		rest[bi] = rest[len(rest)-1]
		rest = rest[:len(rest)-1]
		if toG1 {
			g1.Entries = append(g1.Entries, e)
			lo1, hi1 = mbbOf(g1, t.dims)
		} else {
			g2.Entries = append(g2.Entries, e)
			lo2, hi2 = mbbOf(g2, t.dims)
		}
	}
	n.Entries = g1.Entries
	t.nodes++
	t.chargeWrites(2)
	return g2
}

// pairWaste is Guttman's seed-picking metric: dead volume when i and j
// share one MBB.
func pairWaste(a, b Entry) float64 {
	v := 1.0
	for d := range a.Lo {
		lo, hi := a.Lo[d], a.Hi[d]
		if b.Lo[d] < lo {
			lo = b.Lo[d]
		}
		if b.Hi[d] > hi {
			hi = b.Hi[d]
		}
		v *= float64(hi-lo) + 1
	}
	return v - area(a) - area(b)
}
