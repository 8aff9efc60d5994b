package core

// Cols is a structure-of-arrays (dimension-major) view of a point set:
// column d holds every point's d-th attribute contiguously, mirroring
// internal/store's columnar snapshot layout. Elimination loops scan
// cache-resident int32 runs column-at-a-time instead of chasing *Point
// structs — the memory layout half of the dominance kernel.
type Cols struct {
	TO  [][]int32 // per TO dimension
	PO  [][]int32 // per PO dimension (value ids into the matching domain)
	IDs []int32
}

// NewCols returns an empty SoA view with the given dimensionality,
// pre-sized for capHint points.
func NewCols(nTO, nPO, capHint int) *Cols {
	c := &Cols{TO: make([][]int32, nTO), PO: make([][]int32, nPO)}
	for d := range c.TO {
		c.TO[d] = make([]int32, 0, capHint)
	}
	for d := range c.PO {
		c.PO[d] = make([]int32, 0, capHint)
	}
	c.IDs = make([]int32, 0, capHint)
	return c
}

// Len returns the number of points in the view.
func (c *Cols) Len() int { return len(c.IDs) }

// Append adds one point's attributes to every column.
func (c *Cols) Append(to, po []int32, id int32) {
	for d := range c.TO {
		c.TO[d] = append(c.TO[d], to[d])
	}
	for d := range c.PO {
		c.PO[d] = append(c.PO[d], po[d])
	}
	c.IDs = append(c.IDs, id)
}
