package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
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
//     last-seen emission key reaches r's key — cursor legs stream in
//     non-decreasing L1 mindist key order and a strict t-dominator
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
// instead of over-fetching every shard's full local skyline.

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
		resp, err := g.gatherMerge(ctx, co, start)
		if err != nil {
			return serve.StreamRecord{}, err
		}
		for i := range resp.Skyline { // already cut to the limit
			rec := serve.StreamRecord{Type: "row", Row: &resp.Skyline[i], Emission: i, Elapsed: time.Since(start).Seconds()}
			if err := emit(rec); err != nil {
				return serve.StreamRecord{}, err
			}
		}
		return serve.StreamRecord{
			Type: "trailer", Version: resp.Version, Count: resp.Count,
			Metrics: &resp.Metrics, CacheHit: resp.CacheHit, Algo: resp.Algo,
			Plan: resp.Plan, Cluster: resp.Cluster,
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

// legEvent is one decoded frame (or failure) of one shard leg.
type legEvent struct {
	shard int
	rec   serve.StreamRecord
	err   error // terminal leg failure; rec is invalid
}

// leg opens one shard stream and forwards its frames as events. A
// decode error before the trailer (a torn mid-query stream) surfaces as
// a leg failure, never as silent truncation.
func (g *gather) leg(ctx context.Context, co *Coordinator, shard int, events chan<- legEvent) {
	path := co.shards[shard].tablePath(g.ct.name, "/query?stream=1")
	body, err := co.openShardStream(ctx, shard, path, pin(g.stats, shard), &g.body)
	if err != nil {
		events <- legEvent{shard: shard, err: err}
		return
	}
	defer body.Close()
	dec := json.NewDecoder(body)
	for {
		var rec serve.StreamRecord
		if err := dec.Decode(&rec); err != nil {
			events <- legEvent{shard: shard, err: fmt.Errorf("shard %d: stream ended before trailer: %w", shard, err)}
			return
		}
		switch rec.Type {
		case "heartbeat":
			// The coordinator emits its own heartbeats toward the client.
		case "error":
			events <- legEvent{shard: shard, err: fmt.Errorf("shard %d: %s", shard, rec.Error)}
			return
		case "row":
			if rec.Row == nil {
				events <- legEvent{shard: shard, err: fmt.Errorf("shard %d: row record without a row", shard)}
				return
			}
			events <- legEvent{shard: shard, rec: rec}
		case "trailer":
			events <- legEvent{shard: shard, rec: rec}
			return
		default: // "header" and forward-compatible record types
			events <- legEvent{shard: shard, rec: rec}
		}
	}
}

// streamMerge is the incremental scatter/merge: the stream producer
// running the merge loop against the leg streams. prepare has run. An
// unranked top-k stops after K certified rows; g.limit only truncates
// emission, certification continues.
func (g *gather) streamMerge(ctx context.Context, co *Coordinator, emit func(serve.StreamRecord) error) (serve.StreamRecord, error) {
	topK := g.q.TopK
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
	// On every exit, cancel the remaining legs and drain their events so
	// no goroutine blocks on a send into an abandoned channel.
	defer func() {
		cancel()
		for range events { //nolint:revive // intentional drain
		}
	}()

	// Per-shard bookkeeping, pre-seeded from the statistics snapshot so
	// the trailer's version vector is complete even for legs cancelled
	// by an early top-k stop.
	bounds := make([]shardBound, n)
	versions := make([]int64, n)
	shardRows := make([]int, n)
	complete := make([]bool, n)
	for i, st := range g.stats {
		versions[i] = st.Version
		shardRows[i] = st.Rows
		if c, ok := g.corner(i); ok {
			bounds[i].corner = c
		} else if st.Stats != nil && st.Stats.Rows == 0 {
			bounds[i].empty = true
		}
	}

	type mcand struct {
		c         candidate
		key       *int64 // emission key on cursor-leg rows; nil otherwise
		certified bool
	}
	var alive []mcand
	var metrics core.MetricsExport
	trailers, cacheHits, certified, emitted := 0, 0, 0, 0

	// Per-shard streamed-key progress: cursor legs annotate each row with
	// its non-decreasing L1 mindist key, and a strict t-dominator always
	// has a strictly smaller key than the row it dominates — so once
	// shard s's last-seen key reaches a candidate's key, nothing s can
	// still send dominates that candidate, even when s's static min
	// corner never clears (hash partitioning puts every corner near the
	// origin). Replayed legs (cache hits, forced algorithms) send
	// no keys and stay on the conservative corner bound.
	lastKey := make([]int64, n)
	haveKey := make([]bool, n)

	// certifySweep certifies and emits every pending candidate no
	// incomplete foreign shard threatens. Returns done=true once an
	// unranked top-k has its K rows.
	certifySweep := func() (bool, error) {
		for i := range alive {
			p := &alive[i]
			if p.certified {
				continue
			}
			threatened := false
			for s := 0; s < n && !threatened; s++ {
				if s == p.c.shard || complete[s] {
					continue
				}
				if p.key != nil && haveKey[s] && lastKey[s] >= *p.key {
					continue
				}
				threatened = bounds[s].threatens(&p.c.pt)
			}
			if threatened {
				continue
			}
			p.certified = true
			certified++
			if g.limit == 0 || emitted < g.limit {
				shard := p.c.shard
				row := p.c.row
				row.Shard = &shard
				rec := serve.StreamRecord{Type: "row", Row: &row, Emission: certified - 1, Elapsed: time.Since(start).Seconds()}
				if err := emit(rec); err != nil {
					return false, err
				}
				emitted++
			}
			if topK > 0 && certified == topK {
				return true, nil
			}
		}
		return false, nil
	}

	finish := func() (serve.StreamRecord, error) {
		var version int64
		rowsTot := 0
		for i := 0; i < n; i++ {
			version += versions[i]
			rowsTot += shardRows[i]
		}
		metrics.Shards = n
		trailer := serve.StreamRecord{
			Type: "trailer", Version: version, Rows: rowsTot, Count: certified,
			Metrics: &metrics, CacheHit: trailers > 0 && cacheHits == trailers,
			Algo:    g.explain.Algorithm,
			Cluster: &serve.ClusterMeta{Shards: n, Versions: versions},
		}
		if g.wantExplain {
			g.explain.ObservedSeconds = time.Since(start).Seconds()
			g.explain.ObservedSkyline = certified
			g.explain.CacheHit = trailer.CacheHit
			trailer.Plan = g.explain
		}
		return trailer, nil
	}

	for ev := range events {
		if ev.err != nil {
			return serve.StreamRecord{}, ev.err
		}
		switch ev.rec.Type {
		case "header":
			versions[ev.shard] = ev.rec.Version
			shardRows[ev.shard] = ev.rec.Rows
			continue
		case "row":
			pt, err := g.point(ev.rec.Row)
			if err != nil {
				return serve.StreamRecord{}, err
			}
			// Every keyed arrival advances its shard's progress bound,
			// whether or not the row survives as a candidate.
			if ev.rec.Key != nil {
				lastKey[ev.shard] = *ev.rec.Key
				haveKey[ev.shard] = true
			}
			c := candidate{shard: ev.shard, row: *ev.rec.Row, pt: pt}
			dominated := false
			for i := range alive {
				if core.DominatesUnder(g.doms, &alive[i].c.pt, &c.pt) {
					dominated = true
					break
				}
			}
			if dominated {
				continue
			}
			// The arrival may retire pending candidates; certified rows
			// are un-dominatable by construction and always survive.
			kept := alive[:0]
			for i := range alive {
				if !alive[i].certified && core.DominatesUnder(g.doms, &c.pt, &alive[i].c.pt) {
					continue
				}
				kept = append(kept, alive[i])
			}
			alive = append(kept, mcand{c: c, key: ev.rec.Key})
		case "trailer":
			complete[ev.shard] = true
			trailers++
			if ev.rec.CacheHit {
				cacheHits++
			}
			if ev.rec.Metrics != nil {
				addMetrics(&metrics, ev.rec.Metrics)
			}
		default:
			continue // forward-compatible: ignore unknown record types
		}
		done, err := certifySweep()
		if err != nil {
			return serve.StreamRecord{}, err
		}
		if done {
			return finish()
		}
	}
	// All legs complete: every remaining pending candidate survived the
	// full gather and certifies now.
	if _, err := certifySweep(); err != nil {
		return serve.StreamRecord{}, err
	}
	return finish()
}
