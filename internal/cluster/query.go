package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/poset"
	"repro/internal/serve"
)

// candidate is one shard-local skyline row in the coordinator's merge
// pass: its wire identity (shard + shard-scoped row index + raw TO
// values; row.PO stays nil), its PO labels as the schema's value ids
// (every column, for serve.AppendRow) and the comparison point
// dominance is tested on (projected onto kept dimensions;
// distance-transformed under the ideal-point transform).
type candidate struct {
	shard int
	row   serve.SkylineRow
	po    []int32
	pt    core.Point
}

// appendJSON appends the candidate as its response row, shard included.
func (c *candidate) appendJSON(b []byte, sc *serve.Schema) []byte {
	return serve.AppendRow(b, sc, c.row.Row, c.row.TO, c.po, &c.shard)
}

// record returns the candidate's stream "row" record.
func (c *candidate) record(sc *serve.Schema, info serve.FrameInfo) (serve.StreamRecord, error) {
	return serve.RowRecord(sc, c.row.Row, c.row.TO, c.po, &c.shard, info)
}

// gather is a compiled scatter/gather pass (single-use): how to query
// one shard, how to interpret its rows for the merge, and what to do
// with the merged rows afterwards. compile fills the request-derived
// half before anything is sent anywhere; prepare fills the half that
// needs the shards.
type gather struct {
	ct     *ctable
	keptTO []int           // kept TO dims (identity when no subspace)
	keptPO []int           // kept PO dims
	doms   []*poset.Domain // dominance oracle, one per kept PO dim: the request's orders, else the table's own
	ideal  []int64         // non-nil: |v−ideal| transform (fully dynamic)

	// body is the shard leg's POST /query body.
	body serve.QueryRequest

	// q is the logical query: the input of planOnce and of the post-merge
	// steps, its rank canonical (PlanQuery validated it). Skyline layers
	// (plan.RankLayer) rank the *un-eliminated* union of shard-local
	// ranked results: cross-shard elimination would discard the deeper
	// layers, and min-corner pruning is unsound — a dominated shard's rows
	// are past layer 1, not past layer K.
	q           plan.Query
	wantExplain bool
	limit       int // delivered-row truncation; count still reports every row
	// incremental: certifying rows before every shard has answered is
	// sound — the merged skyline itself is the answer (no global re-rank,
	// no F-dominance pass over the full union) and shard rows compare on
	// their raw coordinates (no ideal transform).
	incremental bool

	stats   []serve.TableStatsInfo // per-shard statistics
	tags    []string               // per-shard ETags of those statistics
	prune   bool                   // statistics-driven shard pruning applies
	explain *plan.Explain          // the coordinator's one plan
	// stale: a leg answered from another snapshot than its shard's
	// statistics named, so the merged answer is not memoised.
	stale atomic.Bool
}

// result of the gather: merged candidates plus scatter metadata.
type gathered struct {
	merged   []candidate
	rowsTot  int
	versions []int64
	pruned   []int
	metrics  core.MetricsExport
	cacheHit bool
}

// candidate turns a decoded shard row into a merge candidate. The
// point's TO values are carved from *pool; its PO values are the row's
// when every PO column is kept.
func (g *gather) candidate(shard int, r *serve.Row, pool *[]int32) (candidate, error) {
	sc := g.ct.schema
	if len(r.PO) != sc.NumPO() {
		return candidate{}, fmt.Errorf("cluster: shard row has %d PO values, table has %d PO columns", len(r.PO), sc.NumPO())
	}
	if len(*pool) < len(g.keptTO) {
		*pool = make([]int32, max(len(g.keptTO), 1024))
	}
	pt := core.Point{ID: -1, TO: (*pool)[:len(g.keptTO):len(g.keptTO)], PO: r.PO}
	*pool = (*pool)[len(g.keptTO):]
	for j, d := range g.keptTO {
		if d >= len(r.TO) {
			return candidate{}, fmt.Errorf("cluster: shard row has %d TO values, need column %d", len(r.TO), d)
		}
		v := r.TO[d]
		if g.ideal != nil {
			v -= g.ideal[d]
			if v < 0 {
				v = -v
			}
		}
		pt.TO[j] = int32(v)
	}
	// Kept dims are ascending and distinct, so keeping them all is the
	// identity and the point shares the row's ids.
	if len(g.keptPO) < len(r.PO) {
		pt.PO = make([]int32, len(g.keptPO))
		for j, d := range g.keptPO {
			pt.PO[j] = r.PO[d]
		}
	}
	return candidate{shard: shard, row: serve.SkylineRow{Row: r.Row, TO: r.TO}, po: r.PO, pt: pt}, nil
}

// universalTops returns the domain values t-preferred to every other
// value — the only PO values that can dominate a shard corner whose PO
// combination is unknown.
func universalTops(dom *poset.Domain) map[int32]bool {
	tops := make(map[int32]bool)
	n := int32(dom.Size())
	for u := int32(0); u < n; u++ {
		top := true
		for v := int32(0); v < n && top; v++ {
			if v != u && !dom.TPrefers(u, v) {
				top = false
			}
		}
		if top {
			tops[u] = true
		}
	}
	return tops
}

// corner returns shard i's statistics min corner over the kept TO
// dims, or ok=false when the shard has no rows (nothing to prune — an
// empty shard answers instantly anyway).
func (g *gather) corner(i int) ([]int64, bool) {
	st := g.stats[i].Stats
	if st == nil || st.Rows == 0 {
		return nil, false
	}
	c := make([]int64, len(g.keptTO))
	for j, d := range g.keptTO {
		if d >= len(st.TO) {
			return nil, false
		}
		c[j] = st.TO[d].Min
	}
	return c, true
}

// dominatesCorner reports whether candidate c t-dominates every row a
// shard with the given min corner could possibly hold: at least as
// good on every kept TO dim with one strictly better, and a
// universally-top PO value on every kept PO dim (the corner's PO
// combination is unknown, so only a top dominates it conservatively).
// Rows of the pruned shard are all ⪰ its corner, so c dominates each
// of them with the same strict dimension.
func (g *gather) dominatesCorner(c *candidate, corner []int64, tops []map[int32]bool) bool {
	strict := false
	for j, d := range g.keptTO {
		v := c.row.TO[d]
		if v > corner[j] {
			return false
		}
		if v < corner[j] {
			strict = true
		}
	}
	if !strict {
		return false
	}
	for j := range g.keptPO {
		if !tops[j][c.pt.PO[j]] {
			return false
		}
	}
	return true
}

// run executes the scatter/gather: the shard with the best (smallest)
// corner is queried first, every remaining shard whose corner is
// dominated by a gathered candidate is pruned, the survivors are
// queried in parallel, and the union is reduced by the t-dominance
// elimination pass.
func (g *gather) run(ctx context.Context, co *Coordinator) (*gathered, error) {
	n := len(co.shards)
	out := &gathered{versions: make([]int64, n)}
	answers := make([]*shardAnswer, n)

	queryShard := func(i int) error {
		var a *shardAnswer
		read := bodyReader(func(r io.Reader) error {
			return serve.WithBody(r, func(b []byte) (err error) {
				a, err = g.decodeAnswer(i, b)
				return err
			})
		})
		t := tagged{out: read}
		err := co.readShard(ctx, i, http.MethodPost, co.shards[i].tablePath(g.ct.name, "/query"), pin(g.stats, i), &g.body, &t)
		if err == nil {
			answers[i] = a
			g.noteLeg(i, t.etag)
		}
		return err
	}

	if !g.prune || n == 1 {
		errs := co.scatter(queryShard)
		if err := firstError(errs); err != nil {
			return nil, err
		}
	} else {
		// Order shards by ascending corner L1: the shard most likely to
		// dominate the others goes first, so its candidates prune the
		// most before any other shard is contacted.
		type sc struct {
			i      int
			corner []int64
			sum    int64
			ok     bool
		}
		order := make([]sc, 0, n)
		for i := 0; i < n; i++ {
			c, ok := g.corner(i)
			e := sc{i: i, corner: c, ok: ok}
			for _, v := range c {
				e.sum += v
			}
			if !ok {
				e.sum = 1<<62 - 1 // empty shards last; never pruned, answer instantly
			}
			order = append(order, e)
		}
		sort.Slice(order, func(a, b int) bool {
			if order[a].sum != order[b].sum {
				return order[a].sum < order[b].sum
			}
			return order[a].i < order[b].i
		})
		if err := queryShard(order[0].i); err != nil {
			return nil, err
		}
		seed := answers[order[0].i].cands
		tops := make([]map[int32]bool, len(g.keptPO))
		for j := range g.keptPO {
			tops[j] = universalTops(g.doms[j])
		}
		var survivors []int
		for _, e := range order[1:] {
			prunable := false
			if e.ok {
				for k := range seed {
					if g.dominatesCorner(&seed[k], e.corner, tops) {
						prunable = true
						break
					}
				}
			}
			if prunable {
				out.pruned = append(out.pruned, e.i)
				// The version vector and the table row count still reflect
				// the snapshot whose statistics justified the prune.
				out.versions[e.i] = g.stats[e.i].Version
				out.rowsTot += g.stats[e.i].Rows
				continue
			}
			survivors = append(survivors, e.i)
		}
		sort.Ints(out.pruned)
		errsByShard := co.scatterSome(survivors, queryShard)
		for _, err := range errsByShard {
			if err != nil {
				return nil, err
			}
		}
	}

	// Collect in shard order so the merged sequence is deterministic.
	var all []candidate
	hits, responded := 0, 0
	for i := 0; i < n; i++ {
		a := answers[i]
		if a == nil {
			continue
		}
		responded++
		out.versions[i] = a.head.Version
		out.rowsTot += a.head.Rows
		if a.tail.CacheHit {
			hits++
		}
		addMetrics(&out.metrics, &a.tail.Metrics)
		all = append(all, a.cands...)
	}
	out.cacheHit = responded > 0 && hits == responded
	out.metrics.Shards = responded
	if g.q.Rank == plan.RankLayer {
		out.merged = all
	} else {
		out.merged = eliminate(all, g.doms)
	}
	return out, nil
}

// pin returns the version shard i's read must observe on failover: the
// version its statistics snapshot was taken at, so the shard's view
// never moves backwards within one scatter. 0 (unpinned) without
// statistics.
func pin(stats []serve.TableStatsInfo, i int) int64 {
	if i < len(stats) {
		return stats[i].Version
	}
	return 0
}

// shardAnswer is one shard's buffered answer: its head and tail, and its
// rows as merge candidates.
type shardAnswer struct {
	head  serve.ResponseHead
	tail  serve.ResponseTail
	cands []candidate
}

// decodeAnswer reads one shard's buffered answer, its rows straight
// into merge candidates.
func (g *gather) decodeAnswer(shard int, b []byte) (*shardAnswer, error) {
	a := new(shardAnswer)
	var pool []int32
	var err error
	a.head, a.tail, err = g.ct.schema.NewRowDecoder().Response(b, func(r *serve.Row) error {
		c, err := g.candidate(shard, r, &pool)
		a.cands = append(a.cands, c)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: shard %d: %w", shard, err)
	}
	return a, nil
}

// eliminate removes candidates t-dominated by a candidate from another
// shard — the cross-shard half of the partition-and-merge
// decomposition, served by the same worker-parallel pass the
// in-process executor uses (core.MergeSurvivors; same-shard pairs are
// skipped because each shard's list is already a skyline). Equal
// points never dominate each other, so duplicated rows survive
// together, matching single-node semantics. Order is preserved.
func eliminate(cands []candidate, doms []*poset.Domain) []candidate {
	if len(cands) == 0 {
		return nil
	}
	pts := make([]core.Point, len(cands))
	shards := make([]int, len(cands))
	for i := range cands {
		pts[i] = cands[i].pt
		shards[i] = cands[i].shard
	}
	keep := core.MergeSurvivors(doms, pts, shards, runtime.GOMAXPROCS(0))
	out := make([]candidate, len(keep))
	for k, i := range keep {
		out[k] = cands[i]
	}
	return out
}

func addMetrics(dst *core.MetricsExport, src *core.MetricsExport) {
	dst.ReadIOs += src.ReadIOs
	dst.WriteIOs += src.WriteIOs
	dst.DomChecks += src.DomChecks
	dst.NodesOpened += src.NodesOpened
	dst.NodesPruned += src.NodesPruned
	dst.PointsPruned += src.PointsPruned
	dst.CPUSeconds += src.CPUSeconds
	dst.Emissions += src.Emissions
	// Shards run concurrently: the virtual wall-clock is the slowest
	// shard, not the sum.
	if src.TotalSeconds > dst.TotalSeconds {
		dst.TotalSeconds = src.TotalSeconds
	}
}

// identityDims returns [0, n).
func identityDims(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// compile turns one decoded POST /query body into the scatter/gather
// pass that answers it, reusing the single-node wire contract end to
// end. ?limit (else the body's limit) truncates the delivered rows, as
// on a node. Every error is a client error, raised before any shard is
// contacted or any stream opens.
func (co *Coordinator) compile(ct *ctable, params url.Values, req serve.QueryRequest) (*gather, error) {
	if v := params.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return nil, fmt.Errorf("bad limit=%q: %w", v, err)
		}
		if n != 0 {
			req.Limit = n
		}
	}
	q, err := ct.schema.PlanQuery(req)
	if err != nil {
		return nil, err
	}
	g := &gather{
		ct:     ct,
		keptTO: identityDims(ct.schema.NumTO()),
		keptPO: identityDims(ct.schema.NumPO()),
		doms:   ct.domains,
		// The leg carries the request minus what only the coordinator can
		// apply: the row limit (the merge needs every candidate) and explain.
		body:        req,
		q:           q,
		wantExplain: req.Explain,
		limit:       req.Limit,
	}
	g.body.Limit, g.body.Explain = 0, false
	// Merge under the domains the shards ran under: the request's own
	// orders when it brought them.
	if q.Orders != nil {
		g.doms = q.Orders
	}
	if q.Subspace != nil {
		g.keptTO, g.keptPO = q.Subspace.TO, q.Subspace.PO
		full := g.doms
		g.doms = make([]*poset.Domain, len(g.keptPO))
		for j, d := range g.keptPO {
			g.doms[j] = full[d]
		}
	}
	// Legs ship the unranked variant: rank scores are global (a
	// shard-local rank could evict globally surviving rows), so each
	// shard over-fetches its full local variant skyline and the
	// coordinator re-ranks the merge. Skyline layers keep top-k and the
	// canonical rank: the shard-local layers are exactly what the union
	// consumes.
	// An ideal point rides along only as the transform every shard must
	// apply; as a ranking's reference point it stays here.
	if q.IdealTransform() {
		g.ideal = q.Ideal
	} else {
		g.body.Ideal = nil
	}
	if q.Rank == plan.RankLayer {
		g.body.Rank = string(q.Rank)
	} else {
		g.body.TopK, g.body.Rank = 0, ""
	}
	g.incremental = q.Rank == plan.RankNone && len(q.FWeights) == 0 && g.ideal == nil
	return g, nil
}

// prepare is the half of the compile that needs the shards: per-shard
// statistics (pruning corners, certification bounds, failover pins) and
// the one plan the coordinator reports. A stream runs it inside its
// producer, under heartbeat cover. stream asks for streamed legs;
// streamed reports whether the pass gets them — only when incremental
// certification is sound.
func (g *gather) prepare(ctx context.Context, co *Coordinator, stream bool) (streamed bool, err error) {
	if g.stats, g.tags, err = co.shardStats(ctx, g.ct); err != nil {
		return false, err
	}
	// Statistics corners bound raw coordinates; they say nothing about
	// distances to an ideal point.
	g.prune = len(co.shards) > 1 && g.q.Rank != plan.RankLayer && g.ideal == nil
	streamed = stream && g.incremental
	if g.explain, err = co.planOnce(g.ct, g.q); err != nil {
		return false, err
	}
	if g.body.Algo == "" {
		// Legs pin the algorithm the coordinator's plan names, which is
		// SFS's scan unless the query forced one; streamed legs pin SFS
		// whatever was forced: only SFS's progressive scan emits shard
		// rows, with their keys, before the local run finishes (a first-K
		// cancellation then stops the shard's scan mid-flight instead of
		// after a full materialization).
		g.body.Algo = g.explain.Algorithm
		if streamed {
			g.body.Algo = "sfs"
		}
	}
	if streamed {
		g.explain.Algorithm = g.body.Algo
	}
	return streamed, nil
}

// reply is a merged answer ready for the wire: the response head and
// tail, and the rows to deliver (already cut to the limit).
type reply struct {
	head serve.ResponseHead
	rows []candidate
	tail serve.ResponseTail
}

// answer is the buffered runner: prepare, then the merged answer the
// memo holds under the shards' current ETags, else gather-and-merge.
func (g *gather) answer(ctx context.Context, co *Coordinator) (*reply, error) {
	start := time.Now()
	if _, err := g.prepare(ctx, co, false); err != nil {
		return nil, err
	}
	key, memoable := g.memoKey()
	if memoable {
		if gr := g.ct.memo.get(g.tags, key); gr != nil {
			co.memoHits.Add(1)
			g.explain.RouteReason = "merged answer revalidated against every shard's ETag"
			return g.finish(co, gr, start), nil
		}
		co.memoMisses.Add(1)
	}
	gr, err := g.merge(ctx, co)
	if err != nil {
		return nil, err
	}
	// Pruned shards are covered by their statistics' ETags; a leg that
	// read another snapshot (a write or a failover between the two) is not.
	if memoable && !g.stale.Load() {
		g.ct.memo.put(g.tags, key, gr.asHit())
	}
	return g.finish(co, gr, start), nil
}

// merge scatters the buffered legs, merges and applies the request's
// post-merge steps: the returned merged candidates are the answer, not
// yet cut to the limit. prepare has run.
func (g *gather) merge(ctx context.Context, co *Coordinator) (*gathered, error) {
	gr, err := g.run(ctx, co)
	if err != nil {
		return nil, err
	}
	co.pruned.Add(int64(len(gr.pruned)))
	if len(g.q.FWeights) > 0 {
		// Weight-restricted skylines (never ranked — Validate refuses the
		// combination): each shard already restricted its local result
		// (FWeights rode the scatter), and F-dominance is transitive, so
		// one member-only elimination pass over the merged union is exact.
		// Sound under pruning too: a pruned shard's rows are t-dominated —
		// hence F-dominated — by a gathered candidate.
		gr.merged = restrictCandidates(g, gr.merged)
	}
	switch {
	case g.q.TopK == 0:
	case g.q.Rank == plan.RankLayer:
		gr.merged = rankLayers(g, gr.merged)
	default:
		if gr.merged, err = co.rank(ctx, g, gr.merged); err != nil {
			return nil, err
		}
	}
	return gr, nil
}

// finish fills the plan's observed fields and assembles the reply.
func (g *gather) finish(co *Coordinator, gr *gathered, start time.Time) *reply {
	g.explain.ObservedSeconds = time.Since(start).Seconds()
	g.explain.ObservedSkyline = len(gr.merged)
	g.explain.CacheHit = gr.cacheHit
	rp := co.wireReply(g.ct, gr, g.limit)
	rp.tail.CacheHit = gr.cacheHit
	rp.tail.Algo = g.explain.Algorithm
	if g.wantExplain {
		rp.tail.Plan = g.explain
	}
	return rp
}

// planOnce reuses internal/plan against a schema-shaped dataset (under
// the request's orders when it brings them): the coordinator validates
// the query exactly once, instead of N times, and reports the plan's
// route and algorithm. Each shard chooses its own parallelism from the
// rows it has.
func (co *Coordinator) planOnce(ct *ctable, q plan.Query) (*plan.Explain, error) {
	shape := &core.Dataset{Domains: ct.domains}
	// One zero row gives the dataset its TO dimensionality; it is never
	// executed — the plan is only consulted for its decisions.
	shape.Pts = []core.Point{{TO: make([]int32, ct.schema.NumTO()), PO: make([]int32, ct.schema.NumPO())}}
	p, err := plan.New(shape, q, plan.Env{})
	if err != nil {
		return nil, err
	}
	ex := p.Explain
	return &ex, nil
}

// rank orders the merged skyline globally and keeps the best K — the
// re-rank half of distributed top-k. The ideal ranking is row-intrinsic
// and scores at the coordinator; domcount and dpidp scatter the
// candidates to every shard — including pruned ones: their rows are
// still part of R — and combine the partial scores. Ties break on row
// values (then shard, row), which is deterministic across any
// placement.
func (co *Coordinator) rank(ctx context.Context, g *gather, merged []candidate) ([]candidate, error) {
	k := g.q.TopK
	var scores []float64
	switch g.q.Rank {
	case plan.RankNone:
		// Unranked: keep a merge-order prefix.
		if k < len(merged) {
			merged = merged[:k]
		}
		return merged, nil
	case plan.RankIdeal:
		scores = plan.IdealScores(g.q.Ideal, g.keptTO, g.keptPO, g.doms, len(merged), func(i int) ([]int64, []int32) {
			return merged[i].row.TO, merged[i].po
		})
	case plan.RankDomCount, plan.RankDPIDP:
		// The rank field is left empty for domcount, preserving the
		// endpoint's original request shape.
		dreq := serve.DomCountRequest{Orders: g.body.Orders, Subspace: g.body.Subspace, Where: g.body.Where}
		if g.q.Rank != plan.RankDomCount {
			dreq.Rank = string(g.q.Rank)
		}
		body, err := serve.AppendDomCount(nil, g.ct.schema, dreq, len(merged), func(i int) ([]int64, []int32) {
			return merged[i].row.TO, merged[i].po
		})
		if err != nil {
			return nil, err
		}
		parts, _, tags, err := co.scatterPartials(ctx, g.ct, body, len(merged), g.stats)
		if err != nil {
			return nil, err
		}
		for i, tag := range tags {
			g.noteLeg(i, tag)
		}
		if _, scores, err = plan.CombinePartials(g.q.Rank, parts, len(merged)); err != nil {
			return nil, fmt.Errorf("cluster: %s", err)
		}
	default:
		return nil, fmt.Errorf("cluster: rank %q has no distributed evaluation", g.q.Rank)
	}
	return sortCandidates(g.ct.schema, merged, scores, k), nil
}

// scatterPartials fans one encoded /domcount request body (n
// candidates) out to every shard and returns the per-shard partial
// scores, the summed shard versions and each answer's ETag. stats, when
// known, pin failover reads to the scatter's versions.
func (co *Coordinator) scatterPartials(ctx context.Context, ct *ctable, body []byte, n int, stats []serve.TableStatsInfo) ([]plan.Partials, int64, []string, error) {
	resps := make([]serve.DomCountResponse, len(co.shards))
	tags := make([]string, len(co.shards))
	errs := co.scatter(func(i int) error {
		t := tagged{out: &resps[i]}
		err := co.readShard(ctx, i, http.MethodPost, co.shards[i].tablePath(ct.name, "/domcount"), pin(stats, i), body, &t)
		tags[i] = t.etag
		return err
	})
	if err := firstError(errs); err != nil {
		return nil, 0, nil, err
	}
	var version int64
	parts := make([]plan.Partials, len(resps))
	for i, r := range resps {
		version += r.Version
		parts[i] = plan.Partials{Counts: r.Counts}
		if r.Hists != nil {
			hists, err := serve.UnpackHists(r.Hists, n)
			if err != nil {
				return nil, 0, nil, fmt.Errorf("cluster: shard %d: %w", i, err)
			}
			parts[i].Hists = hists
		}
	}
	return parts, version, tags, nil
}

// rankLayers re-layers the un-eliminated gathered union: rows deeper
// than the depth bound k are dropped, and the rest order by (layer, row
// values, shard, row) with no count truncation — k is a depth bound the
// shards already applied, not a row budget.
func rankLayers(g *gather, merged []candidate) []candidate {
	pts := make([]core.Point, len(merged))
	for i := range merged {
		pts[i] = merged[i].pt
	}
	layers := core.LayersUnder(g.doms, pts, g.q.TopK, g.q.Hints.NoKernel)
	kept := make([]candidate, 0, len(merged))
	scores := make([]float64, 0, len(merged))
	for i, l := range layers {
		if l >= 1 {
			kept = append(kept, merged[i])
			scores = append(scores, float64(l))
		}
	}
	return sortCandidates(g.ct.schema, kept, scores, len(kept))
}

// restrictCandidates applies the F-dominance weight constraint to the
// merged skyline, eliminating members F-dominated by another member
// (exact by transitivity; see plan/fdom.go).
func restrictCandidates(g *gather, merged []candidate) []candidate {
	pts := make([]core.Point, len(merged))
	for i := range merged {
		pts[i] = merged[i].pt
	}
	keep := plan.FDomSurvivors(g.doms, plan.FVertices(g.q.FWeights, g.keptTO), pts)
	out := make([]candidate, len(keep))
	for i, j := range keep {
		out[i] = merged[j]
	}
	return out
}

// sortCandidates orders candidates by (score ascending, row values,
// shard, row index) and keeps the first k, selecting them rather than
// sorting every candidate.
func sortCandidates(sc *serve.Schema, merged []candidate, scores []float64, k int) []candidate {
	best := plan.SelectK(len(merged), k, func(a, b int) bool {
		if scores[a] != scores[b] {
			return scores[a] < scores[b]
		}
		if c := compareRows(sc, &merged[a], &merged[b]); c != 0 {
			return c < 0
		}
		if merged[a].shard != merged[b].shard {
			return merged[a].shard < merged[b].shard
		}
		return merged[a].row.Row < merged[b].row.Row
	})
	out := make([]candidate, len(best))
	for i, j := range best {
		out[i] = merged[j]
	}
	return out
}

// compareRows orders candidates by their row values,
// lexicographically: TO values, then PO labels.
func compareRows(sc *serve.Schema, a, b *candidate) int {
	if c := slices.Compare(a.row.TO, b.row.TO); c != 0 {
		return c
	}
	for d := range a.po { // every candidate carries one id per PO column
		la, _ := sc.POValueLabel(d, int(a.po[d]))
		lb, _ := sc.POValueLabel(d, int(b.po[d]))
		if c := strings.Compare(la, lb); c != 0 {
			return c
		}
	}
	return 0
}

// DomCount answers POST /tables/{t}/domcount at the coordinator: every
// shard's partial scores for the candidates, folded by
// plan.CombinePartials into what one node holding all the rows would
// answer. The shards check the request, the ranking's name included.
func (co *Coordinator) DomCount(ctx context.Context, ct *ctable, req serve.DomCountRequest, rows []serve.Row) (*serve.DomCountResponse, error) {
	rank := plan.RankDomCount
	if req.Rank != "" {
		rank = plan.Rank(req.Rank)
	}
	body, err := serve.AppendDomCount(nil, ct.schema, req, len(rows), func(i int) ([]int64, []int32) {
		return rows[i].TO, rows[i].PO
	})
	if err != nil {
		return nil, err
	}
	parts, version, _, err := co.scatterPartials(ctx, ct, body, len(rows), nil)
	if err != nil {
		return nil, err
	}
	merged, _, err := plan.CombinePartials(rank, parts, len(rows))
	if err != nil {
		return nil, fmt.Errorf("cluster: %s", err)
	}
	return &serve.DomCountResponse{Table: ct.name, Version: version, Counts: merged.Counts, Hists: serve.PackHists(merged.Hists)}, nil
}

// wireReply shapes the merged candidates as the single-node wire answer
// plus the cluster metadata.
func (co *Coordinator) wireReply(ct *ctable, gr *gathered, limit int) *reply {
	var version int64
	for _, v := range gr.versions {
		version += v
	}
	rows := gr.merged
	if limit > 0 && limit < len(rows) {
		rows = rows[:limit]
	}
	return &reply{
		head: serve.ResponseHead{Table: ct.name, Version: version, Rows: gr.rowsTot, Count: len(gr.merged)},
		rows: rows,
		tail: serve.ResponseTail{
			Metrics: gr.metrics,
			Cluster: &serve.ClusterMeta{
				Shards:   len(co.shards),
				Versions: gr.versions,
				Pruned:   gr.pruned,
			},
		},
	}
}
