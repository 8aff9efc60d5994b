package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/poset"
	"repro/internal/serve"
)

// Streamed scatter/gather: instead of the gather-then-merge barrier
// (wait for every shard, then eliminate), the coordinator consumes the
// shard legs as streams and certifies rows incrementally. A gathered
// row r is *globally certified* — provably in the merged skyline — as
// soon as
//
//  1. no gathered candidate t-dominates it, and
//  2. no still-streaming shard (other than r's own; a shard's stream is
//     its local skyline, so same-shard rows never dominate each other)
//     could still hold a dominator. Shard s is ruled out two ways:
//     statically, while its statistics min corner is componentwise > r
//     on some kept TO dimension (every row of s is coordinate-wise ≥
//     that corner, so such a corner rules out every dominator s could
//     produce, regardless of PO values); or dynamically, once s's
//     last-seen emission key reaches r's key — progressive legs stream
//     in non-decreasing SFS key order and a strict t-dominator
//     always has a strictly smaller key than the row it dominates, so
//     everything s can still send has key ≥ key(r) > key(any dominator
//     of r). The dynamic bound is what makes hash partitioning
//     progressive: every shard's min corner sits near the origin and
//     never clears statically, but interleaved key-ordered legs clear
//     each other continuously. Replayed legs carry no keys and fall
//     back to the static bound.
//
// Certified rows are emitted immediately and never revoked: a later
// arrival from shard s cannot dominate r, because at certification time
// s was either complete (all its rows already compared) or not a threat
// (every row it can still send is strictly worse somewhere). Under
// range partitioning the best shard's rows certify while slower shards
// are still computing — first-K latency is bounded by the fastest
// relevant shard, not the slowest leg. Unranked top-k stops the scatter
// outright once K rows certify (each certified row already beats every
// remaining shard bound), cancelling the remaining legs mid-traversal
// instead of over-fetching every shard's full local skyline; the legs
// are drained in the background, so the trailer does not wait for them.
//
// The merge state is a merger. Condition 1 is a shard-tagged
// core.Window: one kernel offer per arrival, tested against the other
// shards' members only. Condition 2 is checked over a certification
// frontier, the uncertified live candidates in arrival order. The
// frontier is swept in full only after a shard's bound moved (a
// trailer, or a new streamed key); otherwise only the new arrival can
// have become certifiable, so only it is tested.

// stream is the streamed runner: the header first, then — inside the
// producer, so heartbeats flow while the statistics fetch and the plan
// are in flight instead of the client staring at a silent pre-stream
// pause — prepare, and either the incremental merge over streamed legs
// or, when incremental certification is not sound for this request, the
// buffered runner's answer replayed, so every request shape shares the
// stream framing.
func (co *Coordinator) stream(w http.ResponseWriter, r *http.Request, g *gather) {
	header := serve.StreamRecord{Type: "header", Table: g.ct.name}
	serve.StreamResponse(w, r, co.streamHeartbeat, header, func(ctx context.Context, emit func(serve.StreamRecord) error) (serve.StreamRecord, error) {
		start := time.Now()
		streamed, err := g.prepare(ctx, co, true)
		if err != nil {
			return serve.StreamRecord{}, err
		}
		if streamed {
			return g.streamMerge(ctx, co, emit)
		}
		gr, err := g.merge(ctx, co)
		if err != nil {
			return serve.StreamRecord{}, err
		}
		rp := g.finish(co, gr, start)
		for i := range rp.rows { // already cut to the limit
			rec, err := rp.rows[i].record(g.ct.schema, serve.FrameInfo{Emission: i, Elapsed: time.Since(start).Seconds()})
			if err != nil {
				return serve.StreamRecord{}, err
			}
			if err := emit(rec); err != nil {
				return serve.StreamRecord{}, err
			}
		}
		return serve.StreamRecord{
			Type: "trailer", Version: rp.head.Version, Count: rp.head.Count,
			Metrics: &rp.tail.Metrics, CacheHit: rp.tail.CacheHit, Algo: rp.tail.Algo,
			Plan: rp.tail.Plan, Cluster: rp.tail.Cluster,
		}, nil
	})
}

// shardBound is one shard's threat classification for certification.
type shardBound struct {
	corner []int64 // kept-TO statistics min corner; nil when unknown
	empty  bool    // shard holds no rows — never a threat
}

// threatens reports whether an incomplete shard with this bound could
// still stream a row dominating pt (conservative: corner componentwise
// ≤ on every kept TO dimension; PO values are unknown, so they never
// clear a shard).
func (b *shardBound) threatens(pt *core.Point) bool {
	if b.empty {
		return false
	}
	if b.corner == nil {
		return true
	}
	for j, c := range b.corner {
		if c > int64(pt.TO[j]) {
			return false
		}
	}
	return true
}

// legEvent is one decoded frame (or failure) of one shard leg: a row
// as its merge candidate and SFS key, or any other record.
type legEvent struct {
	shard int
	row   bool
	c     candidate // row
	key   *int64    // row; nil on replayed legs
	rec   serve.StreamRecord
	err   error // terminal leg failure; the rest is invalid
}

// leg opens one shard stream and forwards its frames as events: row
// records read by hand into merge candidates, every other record by
// encoding/json. A decode error before the trailer (a torn mid-query
// stream) surfaces as a leg failure, never as silent truncation.
func (g *gather) leg(ctx context.Context, co *Coordinator, shard int, events chan<- legEvent) {
	path := co.shards[shard].tablePath(g.ct.name, "/query?stream=1")
	body, err := co.openShardStream(ctx, shard, path, pin(g.stats, shard), &g.body)
	if err != nil {
		events <- legEvent{shard: shard, err: err}
		return
	}
	defer body.Close()
	torn := func(err error) {
		events <- legEvent{shard: shard, err: fmt.Errorf("shard %d: stream ended before trailer: %w", shard, err)}
	}
	br := bufio.NewReaderSize(body, 64<<10)
	dec := g.ct.schema.NewRowDecoder()
	var long []byte
	var pool []int32
	for {
		line, err := readLine(br, &long)
		if err != nil {
			torn(err)
			return
		}
		r, key, isRow, err := dec.Frame(line)
		if isRow {
			var c candidate
			if err == nil {
				c, err = g.candidate(shard, &r, &pool)
			}
			if err != nil {
				torn(err)
				return
			}
			events <- legEvent{shard: shard, row: true, c: c, key: key}
			continue
		}
		var rec serve.StreamRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			torn(err)
			return
		}
		switch rec.Type {
		case "heartbeat":
			// The coordinator emits its own heartbeats toward the client.
		case "error":
			events <- legEvent{shard: shard, err: fmt.Errorf("shard %d: %s", shard, rec.Error)}
			return
		case "row":
			events <- legEvent{shard: shard, err: fmt.Errorf("shard %d: a row record not in RowRecord's form", shard)}
			return
		case "trailer":
			events <- legEvent{shard: shard, rec: rec}
			return
		default: // "header" and forward-compatible record types
			events <- legEvent{shard: shard, rec: rec}
		}
	}
}

// readLine returns br's next line, its newline included; a line longer
// than br's buffer is gathered in *long.
func readLine(br *bufio.Reader, long *[]byte) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return line, err
	}
	*long = append((*long)[:0], line...)
	for err == bufio.ErrBufferFull {
		line, err = br.ReadSlice('\n')
		*long = append(*long, line...)
	}
	return *long, err
}

// streamMerge is the incremental scatter/merge: the stream producer
// feeding the leg streams to a merger. prepare has run. An unranked
// top-k stops after K certified rows; g.limit only truncates emission,
// certification continues.
func (g *gather) streamMerge(ctx context.Context, co *Coordinator, emit func(serve.StreamRecord) error) (serve.StreamRecord, error) {
	start := time.Now()
	n := len(co.shards)
	legCtx, cancel := context.WithCancel(ctx)
	events := make(chan legEvent, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g.leg(legCtx, co, i, events)
		}(i)
	}
	go func() {
		wg.Wait()
		close(events)
	}()
	// On every exit, cancel the remaining legs and drain their events in
	// the background: no leg blocks on a send into an abandoned channel,
	// and the trailer goes out without waiting for cancelled legs to
	// return. The drain ends once the stream's own legs have returned.
	defer func() {
		cancel()
		go func() {
			for range events { //nolint:revive // intentional drain
			}
		}()
	}()

	// Per-shard bookkeeping, pre-seeded from the statistics snapshot so
	// the trailer's version vector is complete even for legs cancelled
	// by an early top-k stop.
	bounds := make([]shardBound, n)
	versions := make([]int64, n)
	shardRows := make([]int, n)
	for i, st := range g.stats {
		versions[i] = st.Version
		shardRows[i] = st.Rows
		if c, ok := g.corner(i); ok {
			bounds[i].corner = c
		} else if st.Stats != nil && st.Stats.Rows == 0 {
			bounds[i].empty = true
		}
	}

	var metrics core.MetricsExport
	trailers, cacheHits := 0, 0
	m := newMerger(g.doms, len(g.keptTO), bounds, g.q.TopK, func(c *candidate, index int) error {
		if g.limit > 0 && index >= g.limit {
			return nil
		}
		rec, err := c.record(g.ct.schema, serve.FrameInfo{Emission: index, Elapsed: time.Since(start).Seconds()})
		if err != nil {
			return err
		}
		return emit(rec)
	})
	defer m.win.Close()

	finish := func() (serve.StreamRecord, error) {
		var version int64
		rowsTot := 0
		for i := 0; i < n; i++ {
			version += versions[i]
			rowsTot += shardRows[i]
		}
		metrics.Shards = n
		trailer := serve.StreamRecord{
			Type: "trailer", Version: version, Rows: rowsTot, Count: m.certified,
			Metrics: &metrics, CacheHit: trailers > 0 && cacheHits == trailers,
			Algo:    g.explain.Algorithm,
			Cluster: &serve.ClusterMeta{Shards: n, Versions: versions},
		}
		if g.wantExplain {
			g.explain.ObservedSeconds = time.Since(start).Seconds()
			g.explain.ObservedSkyline = m.certified
			g.explain.CacheHit = trailer.CacheHit
			trailer.Plan = g.explain
		}
		return trailer, nil
	}

	for ev := range events {
		if ev.err != nil {
			return serve.StreamRecord{}, ev.err
		}
		var done bool
		var err error
		switch {
		case ev.row:
			done, err = m.row(ev.c, ev.key)
		case ev.rec.Type == "header":
			versions[ev.shard] = ev.rec.Version
			shardRows[ev.shard] = ev.rec.Rows
			continue
		case ev.rec.Type == "trailer":
			trailers++
			if ev.rec.CacheHit {
				cacheHits++
			}
			if ev.rec.Metrics != nil {
				addMetrics(&metrics, ev.rec.Metrics)
			}
			done, err = m.trailer(ev.shard)
		default:
			continue // forward-compatible: ignore unknown record types
		}
		if err != nil {
			return serve.StreamRecord{}, err
		}
		if done {
			return finish()
		}
	}
	// All legs complete: every remaining pending candidate survived the
	// full gather and certifies now.
	if _, err := m.sweep(); err != nil {
		return serve.StreamRecord{}, err
	}
	return finish()
}

// merger is the incremental merge state of one streamed scatter, apart
// from the legs that feed it: shard rows and trailers go in, certified
// candidates come out through sink. Emission order and indexes are
// those of a full certification sweep after every admitted row and
// every trailer. After done or an error the merger is spent.
type merger struct {
	win   *core.Window // condition 1; member i is cands[i]
	cands []pending
	// frontier holds the uncertified candidates in arrival order; an
	// entry evicted since the last sweep is dropped by the next one.
	frontier []int
	stale    bool // a shard's threat bound moved since the last sweep

	bounds   []shardBound
	complete []bool
	// Per-shard streamed-key progress: progressive legs annotate each
	// row with its non-decreasing SFS key, and a strict t-dominator
	// always has a strictly smaller key than the row it dominates — so
	// once shard s's last-seen key reaches a candidate's key, nothing s
	// can still send dominates that candidate, even when s's static min
	// corner never clears (hash partitioning puts every corner near the
	// origin). Replayed legs (cache hits, forced algorithms) send no
	// keys and stay on the conservative corner bound.
	lastKey []int64
	haveKey []bool

	topK      int // > 0: done after K certified rows
	certified int
	sink      func(c *candidate, index int) error
}

// pending is one admitted candidate with its emission key (nil on
// replayed legs).
type pending struct {
	c   candidate
	key *int64
}

func newMerger(doms []*poset.Domain, nTO int, bounds []shardBound, topK int, sink func(c *candidate, index int) error) *merger {
	n := len(bounds)
	return &merger{
		win:      core.NewWindow(doms, nTO, 0, true),
		bounds:   bounds,
		complete: make([]bool, n),
		lastKey:  make([]int64, n),
		haveKey:  make([]bool, n),
		topK:     topK,
		sink:     sink,
	}
}

// row takes one streamed shard row. Every keyed arrival advances its
// shard's progress bound, whether or not the row survives as a
// candidate; a dominated row is dropped without a sweep. done reports
// that a top-k has its K rows.
func (m *merger) row(c candidate, key *int64) (done bool, err error) {
	if key != nil {
		if !m.haveKey[c.shard] || m.lastKey[c.shard] != *key {
			m.stale = true
		}
		m.lastKey[c.shard], m.haveKey[c.shard] = *key, true
	}
	i := len(m.cands)
	if !m.win.Offer(c.pt.TO, c.pt.PO, int32(i), int32(c.shard)) {
		return false, nil
	}
	m.cands = append(m.cands, pending{c: c, key: key})
	m.frontier = append(m.frontier, i)
	if m.stale {
		return m.sweep()
	}
	// The last sweep left every older frontier entry threatened, and no
	// bound has moved since: only the arrival can certify.
	if m.threatened(&m.cands[i]) {
		return false, nil
	}
	m.frontier = m.frontier[:len(m.frontier)-1]
	return m.certify(i)
}

// trailer marks a shard's leg complete and sweeps.
func (m *merger) trailer(shard int) (done bool, err error) {
	m.complete[shard] = true
	return m.sweep()
}

// sweep certifies, in arrival order, every frontier candidate that no
// incomplete foreign shard threatens.
func (m *merger) sweep() (done bool, err error) {
	m.stale = false
	kept := m.frontier[:0]
	for _, i := range m.frontier {
		if !m.win.Alive(i) {
			continue
		}
		if m.threatened(&m.cands[i]) {
			kept = append(kept, i)
			continue
		}
		if done, err := m.certify(i); done || err != nil {
			return done, err
		}
	}
	m.frontier = kept
	return false, nil
}

// threatened reports whether an incomplete shard other than the
// candidate's own could still stream a dominator of it.
func (m *merger) threatened(p *pending) bool {
	for s := range m.bounds {
		if s == p.c.shard || m.complete[s] {
			continue
		}
		if p.key != nil && m.haveKey[s] && m.lastKey[s] >= *p.key {
			continue
		}
		if m.bounds[s].threatens(&p.c.pt) {
			return true
		}
	}
	return false
}

func (m *merger) certify(i int) (done bool, err error) {
	m.certified++
	if err := m.sink(&m.cands[i].c, m.certified-1); err != nil {
		return false, err
	}
	return m.certified == m.topK, nil
}
