package core

import (
	"context"
	"time"

	"repro/internal/rtree"
)

// Cursor is a pull-based sTSS skyline iterator: Next returns skyline
// points one at a time, doing only the work needed to certify the next
// result. Because sTSS is optimally progressive — precedence guarantees
// a surviving point is final the moment it is examined — a consumer that
// stops after k results pays only the traversal cost up to the k-th
// emission. This is the API face of the paper's progressiveness claim
// (Figure 11): top-k-style consumption never touches the rest of the
// index.
type Cursor struct {
	ds      *Dataset
	rd      *rtree.Reader
	io      *rtree.IOCounter
	checker tChecker
	heap    bbsHeap
	metrics Metrics
	start   time.Time
	lastKey int64
	done    bool
}

// STSSIndex is the sTSS index of one dataset: the R-tree bulk-loaded
// over the (TO…, topological ordinal…) coordinates of its points, plus
// what building it cost. It is immutable once built — every Cursor
// traverses it through its own rtree.Reader — so one index serves any
// number of concurrent queries over the same rows.
type STSSIndex struct {
	ds    *Dataset
	tree  *rtree.Tree // nil for an empty dataset
	build Metrics     // BuildWriteIOs and BuildCPU of the bulk load
}

// BuildSTSSIndex bulk-loads the sTSS index for ds. Of opt only the
// R-tree layout (PageSize, Capacity) and the dyadic switch matter; the
// checker and buffer are chosen per Cursor.
func BuildSTSSIndex(ds *Dataset, opt Options) *STSSIndex {
	opt = opt.withDefaults()
	ix := &STSSIndex{ds: ds}
	if len(ds.Pts) == 0 {
		return ix
	}
	buildStart := time.Now()
	io := &rtree.IOCounter{}
	ix.tree = buildSTSSTree(ds, opt, io)
	if !opt.NoDyadic {
		for _, dm := range ds.Domains {
			dm.EnableDyadic()
		}
	}
	ix.build = Metrics{BuildWriteIOs: io.Writes, BuildCPU: time.Since(buildStart)}
	return ix
}

// Cursor starts one sTSS query over the index: the cursor reports the
// index's build counters, charges its own page reads (through an LRU
// buffer of opt.BufferPages pages when set) and does no query work
// until the first Next.
func (ix *STSSIndex) Cursor(opt Options) *Cursor {
	opt = opt.withDefaults()
	io := &rtree.IOCounter{}
	if ix.tree == nil {
		return &Cursor{ds: ix.ds, io: io, start: time.Now(), done: true}
	}
	var buf *rtree.Buffer
	if opt.BufferPages > 0 {
		buf = rtree.NewBuffer(opt.BufferPages)
	}
	c := newTreeCursor(ix.ds, ix.tree.NewReader(io, buf), io, opt)
	c.metrics = ix.build
	return c
}

// NewSTSSCursor builds the sTSS index for ds and returns a cursor over
// its skyline. Construction performs the bulk load (charged to the
// build counters); no query work happens until the first Next.
func NewSTSSCursor(ds *Dataset, opt Options) *Cursor {
	return BuildSTSSIndex(ds, opt).Cursor(opt)
}

// newTreeCursor starts the sTSS query phase over a prebuilt index whose
// leaf entry ids index ds.Pts, read through rd, which charges io; split
// out so tests can run the algorithm on explicitly laid-out trees (the
// paper's Figure 3(c) structure). opt must already carry its defaults,
// and ds must be non-empty.
func newTreeCursor(ds *Dataset, rd *rtree.Reader, io *rtree.IOCounter, opt Options) *Cursor {
	c := &Cursor{ds: ds, rd: rd, io: io, checker: newChecker(ds.Domains, ds.NumTO(), opt)}
	for _, e := range rd.Root().Entries {
		c.heap.push(e)
	}
	c.start = time.Now()
	return c
}

// Next returns the next skyline point id; ok is false when the skyline
// is exhausted. Each returned point is definite — it will never be
// revoked — and the ids arrive in non-decreasing mindist order.
func (c *Cursor) Next() (id int32, ok bool) {
	id, ok, _ = c.NextContext(nil)
	return id, ok
}

// NextContext is Next with cooperative cancellation: the traversal loop
// between two emissions checks ctx every dynCtxCheckEvery heap steps, so
// a request timeout (or a disconnecting streaming client) releases the
// cursor mid-certification. A nil ctx never cancels.
func (c *Cursor) NextContext(ctx context.Context) (id int32, ok bool, err error) {
	if c.done {
		return 0, false, nil
	}
	nTO := c.ds.NumTO()
	for steps := 0; c.heap.len() > 0; steps++ {
		if steps%dynCtxCheckEvery == dynCtxCheckEvery-1 {
			if err := dynCtxErr(ctx); err != nil {
				return 0, false, err
			}
		}
		it := c.heap.pop()
		if it.isPoint {
			p := &c.ds.Pts[it.e.ID]
			if c.checker.dominatedPoint(p.TO, p.PO) {
				c.metrics.PointsPruned++
				continue
			}
			// Precedence (topological ordinals) plus exactness: p is a
			// definite skyline point, output immediately.
			c.checker.add(p)
			c.lastKey = it.mind
			c.metrics.Emissions = append(c.metrics.Emissions, Emission{
				ID:  p.ID,
				IOs: c.io.Reads + c.io.Writes,
				CPU: time.Since(c.start),
			})
			return p.ID, true, nil
		}
		if c.checker.dominatedBox(it.e.Lo[:nTO], it.e.Lo[nTO:], it.e.Hi[nTO:]) {
			c.metrics.NodesPruned++
			continue
		}
		node := c.rd.Open(it.e)
		c.metrics.NodesOpened++
		for _, e := range node.Entries {
			// Children are screened before insertion (as in BBS) and
			// re-checked lazily when popped, since the skyline grows in
			// between.
			if e.IsLeafEntry() {
				c.heap.push(e)
				continue
			}
			if c.checker.dominatedBox(e.Lo[:nTO], e.Lo[nTO:], e.Hi[nTO:]) {
				c.metrics.NodesPruned++
				continue
			}
			c.heap.push(e)
		}
	}
	c.done = true
	return 0, false, nil
}

// Drain runs the cursor to exhaustion and packages what it emitted as
// a Result — the whole of sTSS as a batch algorithm. ctx (nil never
// cancels) is checked per emission and inside NextContext; a canceled
// drain returns what it had emitted along with the context's error.
func (c *Cursor) Drain(ctx context.Context) (*Result, error) {
	res := &Result{}
	err := dynCtxErr(ctx)
	for err == nil {
		var id int32
		var ok bool
		if id, ok, err = c.NextContext(ctx); !ok {
			break
		}
		res.SkylineIDs = append(res.SkylineIDs, id)
		err = dynCtxErr(ctx)
	}
	res.Metrics = c.Metrics()
	return res, err
}

// LastKey returns the L1 mindist key (sum of TO coordinates plus
// topological ordinals) of the most recent Next result, 0 before the
// first emission. Keys are non-decreasing across emissions, and a
// strict t-dominator always has a strictly smaller key than the point
// it dominates — which is what lets a consumer merging several
// key-ordered streams rule a stream out as a dominator source once its
// last-seen key reaches a candidate's key.
func (c *Cursor) LastKey() int64 { return c.lastKey }

// PeekBound returns the L1 mindist key of the best unexamined heap
// entry — a lower bound on the key (sum of TO coordinates plus
// topological ordinals) of every future emission, since Next pops in
// non-decreasing key order. ok is false when the traversal frontier is
// empty (no further emissions are possible). Consumers use it as a
// sound stopping rule for score-threshold top-k: once the k-th best
// score beats the bound (minus the ordinal/depth slack), no future
// emission can enter the top k.
func (c *Cursor) PeekBound() (bound int64, ok bool) {
	if c.done || c.heap.len() == 0 {
		return 0, false
	}
	return c.heap.a[0].mind, true
}

// Metrics snapshots the work done so far (IOs, checks, prunes and the
// emissions already returned by Next).
func (c *Cursor) Metrics() Metrics {
	m := c.metrics
	if c.checker != nil {
		m.DomChecks = c.checker.checks()
	}
	m.ReadIOs = c.io.Reads
	m.WriteIOs = c.io.Writes
	m.CPU = time.Since(c.start)
	return m
}

// Exhausted reports whether the skyline has been fully enumerated.
func (c *Cursor) Exhausted() bool { return c.done }
