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
	done    bool
}

// NewSTSSCursor bulk-loads the sTSS index for ds and returns a cursor
// over its skyline. The bulk load is charged to the build counters
// (BuildWriteIOs, BuildCPU); the cursor charges its own page reads
// (through an LRU buffer of opt.BufferPages pages when set) and does no
// query work until the first Next.
func NewSTSSCursor(ds *Dataset, opt Options) *Cursor {
	opt = opt.withDefaults()
	io := &rtree.IOCounter{}
	if len(ds.Pts) == 0 {
		return &Cursor{ds: ds, io: io, start: time.Now(), done: true}
	}
	buildStart := time.Now()
	buildIO := &rtree.IOCounter{}
	tree := buildSTSSTree(ds, opt, buildIO)
	if !opt.NoDyadic {
		for _, dm := range ds.Domains {
			dm.EnableDyadic()
		}
	}
	build := Metrics{BuildWriteIOs: buildIO.Writes, BuildCPU: time.Since(buildStart)}
	var buf *rtree.Buffer
	if opt.BufferPages > 0 {
		buf = rtree.NewBuffer(opt.BufferPages)
	}
	c := newTreeCursor(ds, tree.NewReader(io, buf), io, opt)
	c.metrics = build
	return c
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

// Metrics snapshots the work done so far (IOs, checks, prunes and the
// emissions already returned by Next), folding the kernel checker's
// work since the previous snapshot into KernelCounters.
func (c *Cursor) Metrics() Metrics {
	m := c.metrics
	if c.checker != nil {
		checkerMetrics(c.checker, &m)
	}
	m.ReadIOs = c.io.Reads
	m.WriteIOs = c.io.Writes
	m.CPU = time.Since(c.start)
	return m
}

// Exhausted reports whether the skyline has been fully enumerated.
func (c *Cursor) Exhausted() bool { return c.done }
