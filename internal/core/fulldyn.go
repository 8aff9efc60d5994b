package core

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/poset"
	"repro/internal/rtree"
)

// This file implements the §V-B extensions of dTSS:
//
//   - fully dynamic skyline queries, which besides the per-query partial
//     orders also specify the *ideal values* of the TO attributes: all
//     TO dominance is redefined relative to a query point q, so the
//     precomputed local skylines are invalid and each group must be
//     searched with distances |t − q|;
//   - caching of past query results keyed by a canonical signature of
//     the query's partial orders (cf. Sacharidis et al., SSDBM 2008).

// absDiff returns |t − q| per dimension — the coordinates of a point in
// the dynamic space centred at q.
func absDiff(t, q []int32) []int32 {
	out := make([]int32, len(t))
	for d, v := range t {
		if v >= q[d] {
			out[d] = v - q[d]
		} else {
			out[d] = q[d] - v
		}
	}
	return out
}

// boxMinDist returns, per dimension, the smallest |x − q[d]| over
// x ∈ [lo[d], hi[d]] — the transformed lower corner of a box, i.e. the
// best point any tuple inside the box could achieve relative to q.
func boxMinDist(lo, hi, q []int32) []int32 {
	out := make([]int32, len(lo))
	for d := range lo {
		switch {
		case q[d] < lo[d]:
			out[d] = lo[d] - q[d]
		case q[d] > hi[d]:
			out[d] = q[d] - hi[d]
		default:
			out[d] = 0
		}
	}
	return out
}

func sumInt32(xs []int32) int64 {
	var s int64
	for _, x := range xs {
		s += int64(x)
	}
	return s
}

// QueryTSSFull answers a fully dynamic skyline query: ideal TO values q
// (one per TO attribute) plus one preference domain per PO attribute.
// A point a dominates b when |a.TO − q| ⪯ |b.TO − q| per dimension, PO
// values are equal or t-preferred per dimension, and something is
// strict. Group trees are traversed best-first by rectilinear distance
// to q; the precomputed local skylines cannot be used (they presume the
// original TO order), exactly as §V-B notes.
func (db *DynamicDB) QueryTSSFull(q []int32, domains []*poset.Domain, opt Options) (*Result, error) {
	return db.QueryTSSFullContext(context.Background(), q, domains, opt)
}

// QueryTSSFullContext is QueryTSSFull with cooperative cancellation,
// checked between groups and periodically inside each group's
// best-first traversal (the same contract as QueryTSSContext).
func (db *DynamicDB) QueryTSSFullContext(ctx context.Context, q []int32, domains []*poset.Domain, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	ds := db.ds
	if len(q) != ds.NumTO() {
		return nil, fmt.Errorf("core: query point has %d coordinates, dataset has %d TO attributes",
			len(q), ds.NumTO())
	}
	if opt.PrecomputedLocal {
		return nil, fmt.Errorf("core: precomputed local skylines are invalid for fully dynamic queries (§V-B)")
	}
	if len(domains) != ds.NumPO() {
		return nil, fmt.Errorf("core: query has %d domains, dataset has %d PO attributes",
			len(domains), ds.NumPO())
	}
	for d, dm := range domains {
		if dm.Size() != ds.Domains[d].Size() {
			return nil, fmt.Errorf("core: query domain %d has %d values, dataset expects %d",
				d, dm.Size(), ds.Domains[d].Size())
		}
		if !opt.NoDyadic {
			dm.EnableDyadic()
		}
	}

	res := &Result{}
	io := &rtree.IOCounter{}
	var extra int64
	clock := newEmitClock(io)
	clock.extra = &extra
	checker := newChecker(domains, ds.NumTO(), opt)
	var buf *rtree.Buffer
	if opt.BufferPages > 0 {
		buf = rtree.NewBuffer(opt.BufferPages)
	}
	if opt.PackedRoots {
		extra += db.packedRootPages()
	}

	order := db.groupOrder(domains)
	for _, gi := range order {
		if err := dynCtxErr(ctx); err != nil {
			return nil, err
		}
		g := &db.groups[gi]
		rd := g.tree.NewReader(io, buf)
		var root *rtree.Node
		if opt.PackedRoots {
			root = rd.RootNoIO()
		} else {
			root = rd.Root()
		}
		// The group's best achievable transformed corner.
		lo, hi := rootMBB(root, ds.NumTO())
		corner := boxMinDist(lo, hi, q)
		if checker.dominatedPoint(corner, g.vals) {
			res.Metrics.NodesPruned++
			continue
		}
		var h bbsHeap
		for _, e := range root.Entries {
			h.pushMind(e, sumInt32(boxMinDist(e.Lo, e.Hi, q)))
		}
		for steps := 0; h.len() > 0; steps++ {
			if steps%dynCtxCheckEvery == dynCtxCheckEvery-1 {
				if err := dynCtxErr(ctx); err != nil {
					return nil, err
				}
			}
			it := h.pop()
			if it.isPoint {
				p := &ds.Pts[it.e.ID]
				tq := absDiff(p.TO, q)
				if checker.dominatedPoint(tq, p.PO) {
					res.Metrics.PointsPruned++
					continue
				}
				res.SkylineIDs = append(res.SkylineIDs, p.ID)
				res.Metrics.Emissions = append(res.Metrics.Emissions, clock.emission(p.ID))
				// The checker stores the *transformed* coordinates so
				// that later checks compare distances to q.
				checker.add(&Point{ID: p.ID, TO: tq, PO: p.PO})
				continue
			}
			c := boxMinDist(it.e.Lo, it.e.Hi, q)
			if checker.dominatedPoint(c, g.vals) {
				res.Metrics.NodesPruned++
				continue
			}
			node := rd.Open(it.e)
			res.Metrics.NodesOpened++
			for _, e := range node.Entries {
				h.pushMind(e, sumInt32(boxMinDist(e.Lo, e.Hi, q)))
			}
		}
	}

	res.Metrics.DomChecks = checker.checks()
	res.Metrics.ReadIOs = io.Reads + extra
	res.Metrics.WriteIOs = io.Writes
	res.Metrics.CPU = clock.elapsed()
	return res, nil
}

// FullyDynamicNaive is the ground-truth oracle for fully dynamic
// queries: brute force over the points transformed around q.
func FullyDynamicNaive(ds *Dataset, q []int32, domains []*poset.Domain) []int32 {
	pts := make([]Point, len(ds.Pts))
	for i, p := range ds.Pts {
		pts[i] = Point{ID: p.ID, TO: absDiff(p.TO, q), PO: p.PO}
	}
	return NaiveSkylineUnder(domains, pts)
}

// groupOrder returns group indexes sorted by ascending sum of
// topological ordinals under the query domains (the cross-group
// precedence order shared by all dTSS variants).
func (db *DynamicDB) groupOrder(domains []*poset.Domain) []int {
	order := make([]int, len(db.groups))
	keys := make([]int64, len(db.groups))
	for gi := range db.groups {
		order[gi] = gi
		var s int64
		for d, v := range db.groups[gi].vals {
			s += int64(domains[d].Ord(v))
		}
		keys[gi] = s
	}
	sort.Slice(order, func(a, b int) bool {
		if keys[order[a]] != keys[order[b]] {
			return keys[order[a]] < keys[order[b]]
		}
		return order[a] < order[b]
	})
	return order
}

// rootMBB computes a root node's overall MBB.
func rootMBB(root *rtree.Node, dims int) (lo, hi []int32) {
	lo = make([]int32, dims)
	hi = make([]int32, dims)
	copy(lo, root.Entries[0].Lo)
	copy(hi, root.Entries[0].Hi)
	for _, e := range root.Entries[1:] {
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

// --- query result cache ------------------------------------------------------

// queryCache memoises dynamic skyline results keyed by the canonical
// signature of the query's partial orders, with FIFO eviction. All
// accesses go through the mutex: QueryTSS may be called from many
// goroutines sharing one DynamicDB.
type queryCache struct {
	mu       sync.Mutex
	capacity int
	results  map[string][]int32
	fifo     []string
	hits     int64
	misses   int64
}

// EnableCache makes QueryTSS memoise up to capacity past results (§V-B:
// "caching of past results can help reduce the processing cost of
// dynamic queries"). A cache hit serves the stored skyline with zero
// page IOs; its metrics reflect only the signature computation.
//
// Call before the database is shared across goroutines: enabling the
// cache swaps an unguarded pointer, while the cache itself is safe for
// concurrent queries once installed.
func (db *DynamicDB) EnableCache(capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	db.cache = &queryCache{capacity: capacity, results: make(map[string][]int32, capacity)}
}

// CacheStats returns (hits, misses) since EnableCache; zeros when the
// cache is disabled.
func (db *DynamicDB) CacheStats() (hits, misses int64) {
	if db.cache == nil {
		return 0, 0
	}
	db.cache.mu.Lock()
	defer db.cache.mu.Unlock()
	return db.cache.hits, db.cache.misses
}

// QuerySignature serialises the query's preference DAGs canonically: value
// count plus the sorted edge list per domain. Two queries with the same
// preferences — however their Orders were constructed — share a
// signature.
func QuerySignature(domains []*poset.Domain) string {
	var sb strings.Builder
	for _, dm := range domains {
		dag := dm.DAG()
		sb.WriteString(strconv.Itoa(dag.N()))
		sb.WriteByte(';')
		for v := 0; v < dag.N(); v++ {
			for _, w := range dag.Out(v) {
				sb.WriteString(strconv.Itoa(v))
				sb.WriteByte('>')
				sb.WriteString(strconv.Itoa(int(w)))
				sb.WriteByte(',')
			}
		}
		sb.WriteByte('|')
	}
	return sb.String()
}

func (c *queryCache) get(sig string) ([]int32, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids, ok := c.results[sig]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return ids, ok
}

func (c *queryCache) put(sig string, ids []int32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.results[sig]; exists {
		return
	}
	if len(c.fifo) >= c.capacity {
		old := c.fifo[0]
		c.fifo = c.fifo[1:]
		delete(c.results, old)
	}
	c.fifo = append(c.fifo, sig)
	c.results[sig] = ids
}

// lookupCache consults the cache inside QueryTSS; returns a served
// result on hit.
func (db *DynamicDB) lookupCache(domains []*poset.Domain) (*Result, string) {
	if db.cache == nil {
		return nil, ""
	}
	start := time.Now()
	sig := QuerySignature(domains)
	if ids, ok := db.cache.get(sig); ok {
		res := &Result{SkylineIDs: append([]int32(nil), ids...), FromCache: true}
		res.Metrics.CPU = time.Since(start)
		return res, sig
	}
	return nil, sig
}

func (db *DynamicDB) storeCache(sig string, res *Result) {
	// res is nil when the query erred or was canceled mid-run — there is
	// no (complete) skyline to memoise.
	if db.cache == nil || sig == "" || res == nil {
		return
	}
	db.cache.put(sig, append([]int32(nil), res.SkylineIDs...))
}
