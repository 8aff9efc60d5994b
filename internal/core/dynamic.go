package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/poset"
	"repro/internal/rtree"
)

// dynCtxCheckEvery is how many traversal steps pass between cooperative
// context checks inside a dynamic query's group-search loops.
const dynCtxCheckEvery = 4096

// dynCtxErr reports a canceled/expired context as a wrapped error so
// callers can errors.Is against context.Canceled/DeadlineExceeded. A
// nil context never cancels.
func dynCtxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: dynamic query canceled: %w", err)
	}
	return nil
}

// DynamicDB is the persistent structure behind dTSS (§V): the points
// partitioned into groups by their PO value combination, with one
// R-tree per group built over the TO attributes only. Because dominance
// *within* a group never depends on the partial order, the groups — and
// their trees — survive any dynamic skyline query; a query only has to
// preprocess its own partial orders (topological sort, spanning tree,
// intervals), which is the entire advantage over the rebuild-everything
// baseline.
type DynamicDB struct {
	ds     *Dataset
	opt    Options
	groups []dynGroup
	byKey  map[string]int // PO value combination -> group index
	cache  *queryCache

	// Build metrics for reporting; queries are charged separately.
	BuildWriteIOs int64
	BuildCPU      time.Duration
}

type dynGroup struct {
	vals []int32 // the PO value per PO dimension shared by all members
	idxs []int32 // row indexes of the members, ascending
	tree *rtree.Tree
	// local is the group's TO-only local skyline in ascending-mindist
	// order, for the §V-B pre-processing optimisation.
	local []int32
}

// NewDynamicDB partitions ds and bulk-loads the per-group trees.
// ds.Domains fixes only the value *sets* of the PO attributes; queries
// supply their own preference DAGs over the same value sets.
func NewDynamicDB(ds *Dataset, opt Options) *DynamicDB {
	opt = opt.withDefaults()
	start := time.Now()
	io := &rtree.IOCounter{}
	db := &DynamicDB{ds: ds, opt: opt, byKey: map[string]int{}}

	for i := range ds.Pts {
		k := poKey(ds.Pts[i].PO)
		gi, ok := db.byKey[k]
		if !ok {
			gi = len(db.groups)
			db.byKey[k] = gi
			db.groups = append(db.groups, dynGroup{vals: append([]int32(nil), ds.Pts[i].PO...)})
		}
		db.groups[gi].idxs = append(db.groups[gi].idxs, int32(i))
	}
	nTO := ds.NumTO()
	cap := opt.capacityFor(nTO)
	for gi := range db.groups {
		g := &db.groups[gi]
		pts := make([]rtree.Point, len(g.idxs))
		for k, i := range g.idxs {
			pts[k] = rtree.Point{Coords: ds.Pts[i].TO, ID: i}
		}
		g.tree = rtree.BulkLoad(nTO, pts, cap, io)
		g.local = localSkylineTO(ds, g.idxs)
	}
	db.BuildWriteIOs = io.Writes
	db.BuildCPU = time.Since(start)
	return db
}

func poKey(vals []int32) string {
	b := make([]byte, 0, len(vals)*5)
	for _, v := range vals {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24), ':')
	}
	return string(b)
}

// localSkylineTO computes the TO-only skyline of a group (its members
// share every PO value, so within-group dominance is plain TO
// dominance), returned in ascending L1 order so that scanning it
// preserves precedence.
func localSkylineTO(ds *Dataset, idxs []int32) []int32 {
	type rec struct {
		idx int32
		sum int64
	}
	recs := make([]rec, len(idxs))
	for k, i := range idxs {
		var s int64
		for _, v := range ds.Pts[i].TO {
			s += int64(v)
		}
		recs[k] = rec{idx: i, sum: s}
	}
	sort.Slice(recs, func(a, b int) bool {
		if recs[a].sum != recs[b].sum {
			return recs[a].sum < recs[b].sum
		}
		return recs[a].idx < recs[b].idx
	})
	var sky []int32
	for _, r := range recs {
		p := &ds.Pts[r.idx]
		dominated := false
		for _, si := range sky {
			if toDominates(ds.Pts[si].TO, p.TO) {
				dominated = true
				break
			}
		}
		if !dominated {
			sky = append(sky, r.idx)
		}
	}
	return sky
}

func toDominates(a, b []int32) bool {
	strict := false
	for d, av := range a {
		if av > b[d] {
			return false
		}
		if av < b[d] {
			strict = true
		}
	}
	return strict
}

// NumGroups returns the number of distinct PO value combinations.
func (db *DynamicDB) NumGroups() int { return len(db.groups) }

// QueryTSS answers a dynamic skyline query with dTSS (§V-A): the query
// supplies one preference DAG per PO attribute (as domains preprocessed
// from them); groups are visited in ascending total topological ordinal
// — which guarantees precedence across groups — and a global structure
// of virtual points provides the exact t-dominance check. Per-query
// work is only the domain preprocessing plus the traversal; no point
// coordinates are recomputed and no index is rebuilt.
//
// The query-phase metrics include the domain preprocessing CPU.
func (db *DynamicDB) QueryTSS(domains []*poset.Domain, opt Options) (*Result, error) {
	return db.QueryTSSContext(context.Background(), domains, opt)
}

// QueryTSSContext is QueryTSS with cooperative cancellation: ctx is
// checked between groups and periodically inside each group's BBS
// traversal, so a server-side request timeout releases its worker
// mid-run instead of paying for the whole skyline. A canceled run
// returns an error wrapping the context's and stores nothing in the
// past-result cache.
func (db *DynamicDB) QueryTSSContext(ctx context.Context, domains []*poset.Domain, opt Options) (resOut *Result, errOut error) {
	opt = opt.withDefaults()
	ds := db.ds
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
	// Past-result cache (§V-B): identical preference DAGs are served
	// without touching any index.
	if cached, sig := db.lookupCache(domains); cached != nil {
		return cached, nil
	} else if sig != "" {
		defer func() { db.storeCache(sig, resOut) }()
	}

	res := &Result{}
	io := &rtree.IOCounter{}
	var extra int64 // page charges outside the trees (local-skyline scans)
	clock := newEmitClock(io)
	clock.extra = &extra
	var buf *rtree.Buffer
	if opt.BufferPages > 0 {
		buf = rtree.NewBuffer(opt.BufferPages)
	}

	// Visit groups in ascending sum of topological ordinals: if group A
	// can dominate group B (every value of A reaches-or-equals B's),
	// every ordinal of A is ≤ B's with at least one strictly smaller,
	// so A comes first — precedence across groups.
	order := db.groupOrder(domains)
	checker := newChecker(domains, ds.NumTO(), opt)

	if opt.PackedRoots && !opt.PrecomputedLocal {
		extra += db.packedRootPages()
	}
	for _, gi := range order {
		if err := dynCtxErr(ctx); err != nil {
			return nil, err
		}
		g := &db.groups[gi]
		if opt.PrecomputedLocal {
			db.scanLocal(g, domains, checker, clock, res, &extra)
			continue
		}
		if err := db.searchGroup(ctx, g, domains, checker, clock, io, buf, opt.PackedRoots, res); err != nil {
			return nil, err
		}
	}

	checkerMetrics(checker, &res.Metrics)
	res.Metrics.ReadIOs = io.Reads + extra
	res.Metrics.WriteIOs = io.Writes
	res.Metrics.CPU = clock.elapsed()
	resOut = res
	return res, nil
}

// searchGroup runs BBS inside one group's TO R-tree, checking every
// entry against the global skyline structure. The group root's MBB is
// tested first, so wholly dominated groups cost exactly one page read
// (the root visit the paper's §VI-C discussion refers to).
//
// The tree is traversed through a per-query rtree.Reader so that
// concurrent queries against the same DynamicDB never touch shared
// mutable state.
func (db *DynamicDB) searchGroup(ctx context.Context, g *dynGroup, domains []*poset.Domain, checker tChecker, clock *emitClock, io *rtree.IOCounter, buf *rtree.Buffer, packedRoots bool, res *Result) error {
	ds := db.ds
	rd := g.tree.NewReader(io, buf)
	var root *rtree.Node
	if packedRoots {
		root = rd.RootNoIO() // charged sequentially up front
	} else {
		root = rd.Root()
	}
	corner := groupCorner(root, ds.NumTO())
	if checker.dominatedPoint(corner, g.vals) {
		res.Metrics.NodesPruned++
		return nil
	}
	var h bbsHeap
	for _, e := range root.Entries {
		h.push(e)
	}
	for steps := 0; h.len() > 0; steps++ {
		if steps%dynCtxCheckEvery == dynCtxCheckEvery-1 {
			if err := dynCtxErr(ctx); err != nil {
				return err
			}
		}
		it := h.pop()
		if it.isPoint {
			p := &ds.Pts[it.e.ID]
			if checker.dominatedPoint(p.TO, p.PO) {
				res.Metrics.PointsPruned++
				continue
			}
			res.SkylineIDs = append(res.SkylineIDs, p.ID)
			res.Metrics.Emissions = append(res.Metrics.Emissions, clock.emission(p.ID))
			checker.add(p)
			continue
		}
		// An MBB inside a group is a box with the group's fixed PO
		// values: its lower corner acts as a pseudo-point.
		if checker.dominatedPoint(it.e.Lo, g.vals) {
			res.Metrics.NodesPruned++
			continue
		}
		node := rd.Open(it.e)
		res.Metrics.NodesOpened++
		for _, e := range node.Entries {
			if !e.IsLeafEntry() && checker.dominatedPoint(e.Lo, g.vals) {
				res.Metrics.NodesPruned++
				continue
			}
			h.push(e)
		}
	}
	return nil
}

// scanLocal answers from the precomputed local skyline (§V-B): only the
// group's local skyline points are examined, in ascending mindist order.
// Reading the list is charged as sequential data pages.
func (db *DynamicDB) scanLocal(g *dynGroup, domains []*poset.Domain, checker tChecker, clock *emitClock, res *Result, extra *int64) {
	ds := db.ds
	*extra += db.opt.dataPages(len(g.local), ds.NumTO()+ds.NumPO())
	for _, i := range g.local {
		p := &ds.Pts[i]
		if checker.dominatedPoint(p.TO, p.PO) {
			res.Metrics.PointsPruned++
			continue
		}
		res.SkylineIDs = append(res.SkylineIDs, p.ID)
		res.Metrics.Emissions = append(res.Metrics.Emissions, clock.emission(p.ID))
		checker.add(p)
	}
}

// packedRootPages returns the sequential page reads needed to load all
// group roots when they are stored contiguously.
func (db *DynamicDB) packedRootPages() int64 {
	total := 0
	for gi := range db.groups {
		total += db.groups[gi].tree.RootBytes()
	}
	pages := int64(total) / int64(db.opt.PageSize)
	if total%db.opt.PageSize != 0 {
		pages++
	}
	if pages == 0 && len(db.groups) > 0 {
		pages = 1
	}
	return pages
}

// groupCorner computes the lower corner of a root node's MBB.
func groupCorner(root *rtree.Node, dims int) []int32 {
	corner := make([]int32, dims)
	copy(corner, root.Entries[0].Lo)
	for _, e := range root.Entries[1:] {
		for d := 0; d < dims; d++ {
			if e.Lo[d] < corner[d] {
				corner[d] = e.Lo[d]
			}
		}
	}
	return corner
}

// DynamicSDCPlus is the baseline for dynamic queries (§VI-C): SDC+ must
// recompute every node interval, re-classify all tuples into strata and
// rebuild all per-stratum R-trees for each query. The rebuild is charged
// as an external sort — two read+write passes over the data file — plus
// the bulk-load page writes; none of this cost can be amortised across
// queries.
func DynamicSDCPlus(ds *Dataset, domains []*poset.Domain, opt Options) (*Result, error) {
	return DynamicSDCPlusContext(context.Background(), ds, domains, opt)
}

// DynamicSDCPlusContext is DynamicSDCPlus with cooperative cancellation:
// besides the pre-start check, the per-stratum traversal loop checks ctx
// every dynCtxCheckEvery steps — the same cadence the dTSS loops use —
// so a canceled baseline query stops paying for the rebuild it can no
// longer amortise.
func DynamicSDCPlusContext(ctx context.Context, ds *Dataset, domains []*poset.Domain, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	if len(domains) != ds.NumPO() {
		return nil, fmt.Errorf("core: query has %d domains, dataset has %d PO attributes",
			len(domains), ds.NumPO())
	}
	for d, dm := range domains {
		if dm.Size() != ds.Domains[d].Size() {
			return nil, fmt.Errorf("core: query domain %d has %d values, dataset expects %d",
				d, dm.Size(), ds.Domains[d].Size())
		}
	}
	res := &Result{}
	io := &rtree.IOCounter{}

	// External sort into strata: read + write the file, twice.
	pages := opt.dataPages(len(ds.Pts), ds.NumTO()+ds.NumPO())
	io.Reads += 2 * pages
	io.Writes += 2 * pages

	if err := dynCtxErr(ctx); err != nil {
		return nil, err
	}
	start := time.Now()
	strata := buildStrata(ds, domains, opt, io) // bulk-load writes on io
	rebuildCPU := time.Since(start)

	if err := runSDCPlus(ctx, ds, domains, strata, io, res); err != nil {
		return nil, err
	}
	res.Metrics.CPU += rebuildCPU
	return res, nil
}
