package plan

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/poset"
)

// DefaultSubspaceCap bounds the subspace half of a MemoCache. Now that
// memos survive mutations (Advance) a table's subspace entries would
// otherwise accumulate for the life of the table instead of dying with
// each snapshot; beyond the cap the least-recently-used entry is
// evicted.
const DefaultSubspaceCap = 32

// DefaultOrdersCap bounds the per-request-orders entries of a MemoCache
// (see ordersView) when the memo's owner does not size them.
const DefaultOrdersCap = 64

// ordersKeyMark separates the per-request-orders suffix in a memo key.
const ordersKeyMark = "|ord:"

// ordersView scopes c to one set of per-request preference domains:
// the full skyline and every subspace or restricted skyline computed
// under them are keyed entries suffixed with the orders' canonical
// signature — §V-B's cache of past dynamic results, so a repeated DAG is
// a hit however its Orders were rebuilt. A MemoCache keeps them in their
// own LRU; any other Cache sees them as subspace entries. The view is
// deliberately not a ScoreIndexCache: a score index describes dominance
// under the table's own orders. A nil c stays nil.
func ordersView(c Cache, orders []*poset.Domain) Cache {
	if c == nil {
		return nil
	}
	v := ordersCache{get: c.GetSubspace, put: c.PutSubspace, suffix: ordersKeyMark + core.QuerySignature(orders)}
	if m, ok := c.(*MemoCache); ok {
		v.get = func(key string) ([]int32, bool, bool) { return m.get(&m.ord, key) }
		v.put = func(key string, ids []int32) { m.put(&m.ord, key, &memoEntry{ids: ids}) }
	}
	return v
}

type ordersCache struct {
	get    func(key string) (ids []int32, maintained, ok bool)
	put    func(key string, ids []int32)
	suffix string
}

func (o ordersCache) GetFull() ([]int32, bool, bool)               { return o.get(FullVariant + o.suffix) }
func (o ordersCache) PutFull(ids []int32)                          { o.put(FullVariant+o.suffix, ids) }
func (o ordersCache) GetSubspace(key string) ([]int32, bool, bool) { return o.get(key + o.suffix) }
func (o ordersCache) PutSubspace(key string, ids []int32)          { o.put(key+o.suffix, ids) }

// memoEntry is one memoised skyline: the ids plus whether the entry was
// produced by delta maintenance (Advance) rather than a cold compute.
// seq is the LRU recency stamp of subspace entries.
type memoEntry struct {
	ids        []int32
	maintained bool
	seq        uint64
}

// MaintStats is a point-in-time snapshot of a memo lineage's
// maintenance counters (see MemoCache.MaintStats).
type MaintStats struct {
	// Advances counts memo entries carried across a mutation by delta
	// maintenance (full and subspace entries count individually).
	Advances int64 `json:"advances"`
	// Fallbacks counts entries dropped because the batch's churn
	// exceeded the maintenance threshold — the next query recomputes
	// from cold.
	Fallbacks int64 `json:"fallbacks"`
	// Promotions counts rows that entered a maintained skyline because
	// a removed member no longer dominated them.
	Promotions int64 `json:"promotions"`
	// SubspaceEvictions counts subspace entries evicted by the LRU cap.
	SubspaceEvictions int64 `json:"subspaceEvictions"`
	// IndexAdvances counts dp-idp score indexes carried across a
	// mutation incrementally; IndexFallbacks counts indexes dropped
	// (membership churn over threshold, or no maintained skyline to
	// advance against) — the next index-backed ranked query rebuilds.
	IndexAdvances  int64 `json:"indexAdvances"`
	IndexFallbacks int64 `json:"indexFallbacks"`
}

// maintCounters is the shared mutable form of MaintStats. One instance
// is carried across a table's whole memo lineage: Advance hands the
// pointer to the successor memo, so the counters are cumulative per
// table, not per snapshot.
type maintCounters struct {
	advances, fallbacks, promotions, subEvictions atomic.Int64
	idxAdvances, idxFallbacks                     atomic.Int64
}

// MemoCache is a ready-made Cache: an atomically published memo of the
// full skyline of one immutable row set, plus two bounded LRU-keyed
// memos — subspace skylines under the table's own orders (one entry per
// kept-dimension set), and skylines under per-request orders (reached
// only through ordersView). The serving layer binds one to each
// table snapshot; tss.Table.SetQueryCache accepts one directly.
// Concurrent racing Puts are benign — for any given key every writer
// stores the same skyline set, because the row set the memo describes
// never changes. Across mutations the memo is not discarded: Advance
// re-certifies its own-order entries against the batch delta (see that
// method).
type MemoCache struct {
	full     atomic.Pointer[memoEntry]
	scoreIdx atomic.Pointer[core.ScoreIndex] // dp-idp index of the full skyline

	mu  sync.Mutex
	seq uint64   // LRU clock
	sub keyedLRU // kept-dimension key -> subspace skyline
	ord keyedLRU // key + orders suffix -> skyline under those orders

	maint *maintCounters // shared across the Advance lineage
}

// keyedLRU is one bounded keyed half of a MemoCache, guarded by its mu.
type keyedLRU struct {
	entries map[string]*memoEntry
	cap     int
}

// NewMemoCache returns an empty memo with the default caps.
func NewMemoCache() *MemoCache { return NewMemoCacheWithCaps(0) }

// NewMemoCacheWithCaps returns an empty memo whose subspace LRU holds up
// to DefaultSubspaceCap entries and whose per-request-orders LRU up to
// ordersCap (<= 0 means DefaultOrdersCap). Advance propagates both caps
// to successor memos.
func NewMemoCacheWithCaps(ordersCap int) *MemoCache {
	if ordersCap <= 0 {
		ordersCap = DefaultOrdersCap
	}
	return &MemoCache{sub: keyedLRU{cap: DefaultSubspaceCap}, ord: keyedLRU{cap: ordersCap}, maint: &maintCounters{}}
}

// GetFull returns the memoised full skyline, if any, and whether the
// entry was produced by delta maintenance.
func (c *MemoCache) GetFull() (ids []int32, maintained, ok bool) {
	if e := c.full.Load(); e != nil {
		return e.ids, e.maintained, true
	}
	return nil, false, false
}

// PutFull publishes the full skyline of the current row set (a cold
// compute — maintained entries are installed only by Advance). The
// caller must not mutate ids afterwards.
func (c *MemoCache) PutFull(ids []int32) { c.full.Store(&memoEntry{ids: ids}) }

// GetScoreIndex returns the memo's dp-idp score index, if any —
// the ScoreIndexCache capability the executor probes for.
func (c *MemoCache) GetScoreIndex() (*core.ScoreIndex, bool) {
	if ix := c.scoreIdx.Load(); ix != nil {
		return ix, true
	}
	return nil, false
}

// PutScoreIndex publishes a cold-built dp-idp index of the current row
// set's full skyline. The caller must not mutate it afterwards.
func (c *MemoCache) PutScoreIndex(ix *core.ScoreIndex) { c.scoreIdx.Store(ix) }

// GetSubspace returns the memoised skyline of the kept-dimension set
// named by key (see SubspaceKey), if any, and whether the entry was
// produced by delta maintenance. A hit refreshes the entry's LRU
// recency.
func (c *MemoCache) GetSubspace(key string) (ids []int32, maintained, ok bool) {
	return c.get(&c.sub, key)
}

// get looks key up in l, one of c's two keyed LRUs.
func (c *MemoCache) get(l *keyedLRU, key string) (ids []int32, maintained, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := l.entries[key]
	if !ok {
		return nil, false, false
	}
	c.seq++
	e.seq = c.seq
	return e.ids, e.maintained, true
}

// PutSubspace memoises the skyline of one kept-dimension set, evicting
// the least-recently-used entry if the cap is exceeded. The caller must
// not mutate ids afterwards.
func (c *MemoCache) PutSubspace(key string, ids []int32) {
	c.put(&c.sub, key, &memoEntry{ids: ids})
}

// put stores e under key in l, one of c's two keyed LRUs.
func (c *MemoCache) put(l *keyedLRU, key string, e *memoEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if l.entries == nil {
		l.entries = make(map[string]*memoEntry)
	}
	c.seq++
	e.seq = c.seq
	l.entries[key] = e
	for len(l.entries) > l.cap {
		victim, min := "", uint64(0)
		for k, se := range l.entries {
			if victim == "" || se.seq < min {
				victim, min = k, se.seq
			}
		}
		delete(l.entries, victim)
		if l == &c.sub {
			c.maint.subEvictions.Add(1)
		}
	}
}

// MaintStats snapshots the maintenance counters of this memo's lineage
// (cumulative across Advance calls, shared with every ancestor and
// successor memo of the same table).
func (c *MemoCache) MaintStats() MaintStats {
	return MaintStats{
		Advances:          c.maint.advances.Load(),
		Fallbacks:         c.maint.fallbacks.Load(),
		Promotions:        c.maint.promotions.Load(),
		SubspaceEvictions: c.maint.subEvictions.Load(),
		IndexAdvances:     c.maint.idxAdvances.Load(),
		IndexFallbacks:    c.maint.idxFallbacks.Load(),
	}
}

// Advance carries this memo across a mutation: it returns a new
// MemoCache for the post-batch row set whose entries are re-certified
// from the old ones by delta maintenance (core.MaintainSkyline) instead
// of being recomputed from cold. Entries whose batch churn exceeds the
// maintenance threshold are dropped individually (counted as
// fallbacks); the receiving memo stays valid for readers of the old
// snapshot. Per-request-orders entries die with the snapshot, silently:
// the next query under those orders recomputes. oldDS/newDS are the row
// sets before and after the batch; delta maps old row indexes to new
// ones as Table.ApplyBatch reports.
func (c *MemoCache) Advance(oldDS, newDS *core.Dataset, delta *core.Delta) *MemoCache {
	next := &MemoCache{sub: keyedLRU{cap: c.sub.cap}, ord: keyedLRU{cap: c.ord.cap}, maint: c.maint}

	if e := c.full.Load(); e != nil {
		if ids, st, ok := core.MaintainSkyline(oldDS, newDS, delta, e.ids, nil, nil); ok {
			next.full.Store(&memoEntry{ids: ids, maintained: true})
			next.maint.advances.Add(1)
			next.maint.promotions.Add(int64(st.Promotions))
		} else {
			next.maint.fallbacks.Add(1)
		}
	}

	// The dp-idp score index advances only when the full skyline itself
	// survived maintenance (the advanced member set is its input); a
	// skyline fallback, an over-threshold membership churn, or a failed
	// integer re-derivation drops the index for a lazy rebuild on the
	// next index-backed ranked query.
	if ix := c.scoreIdx.Load(); ix != nil {
		advanced := false
		if nf := next.full.Load(); nf != nil {
			if nix, ok := ix.Advance(oldDS, newDS, delta, nf.ids); ok {
				next.scoreIdx.Store(nix)
				next.maint.idxAdvances.Add(1)
				advanced = true
			}
		}
		if !advanced {
			next.maint.idxFallbacks.Add(1)
		}
	}

	c.mu.Lock()
	keys := make([]string, 0, len(c.sub.entries))
	entries := make([]*memoEntry, 0, len(c.sub.entries))
	for k, e := range c.sub.entries {
		keys = append(keys, k)
		entries = append(entries, e)
	}
	c.mu.Unlock()
	for i, key := range keys {
		// Weight-restricted entries are not incrementally maintainable
		// (an added row can join the restricted skyline without any
		// member changing); they die with the snapshot, silently — the
		// restriction recomputes from the maintained base entry.
		if strings.Contains(key, restrictedKeyMark) {
			continue
		}
		keptTO, keptPO, err := parseSubspaceKey(key)
		if err != nil {
			next.maint.fallbacks.Add(1)
			continue
		}
		ids, st, ok := core.MaintainSkyline(oldDS, newDS, delta, entries[i].ids, keptTO, keptPO)
		if !ok {
			next.maint.fallbacks.Add(1)
			continue
		}
		next.maint.advances.Add(1)
		next.maint.promotions.Add(int64(st.Promotions))
		next.put(&next.sub, key, &memoEntry{ids: ids, maintained: true})
	}
	return next
}

// SubspaceKey canonically names a kept-dimension set — the memo key of
// subspace entries and the Learned skyline-fraction variant key. The
// dimension lists must be in Validate's canonical form (ascending,
// duplicate-free); nil yields FullVariant.
func SubspaceKey(s *Subspace) string {
	if s == nil {
		return FullVariant
	}
	var b strings.Builder
	b.WriteString("to:")
	for i, d := range s.TO {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", d)
	}
	b.WriteString("|po:")
	for i, d := range s.PO {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", d)
	}
	return b.String()
}

// parseSubspaceKey inverts SubspaceKey, recovering the kept TO and PO
// dimension lists. The returned slices are non-nil even when empty, so
// they never alias the nil/nil "full dimensionality" form.
func parseSubspaceKey(key string) (keptTO, keptPO []int, err error) {
	rest, ok := strings.CutPrefix(key, "to:")
	if !ok {
		return nil, nil, fmt.Errorf("plan: subspace key %q: missing to:", key)
	}
	toPart, poPart, ok := strings.Cut(rest, "|po:")
	if !ok {
		return nil, nil, fmt.Errorf("plan: subspace key %q: missing |po:", key)
	}
	parse := func(s string) ([]int, error) {
		out := []int{}
		if s == "" {
			return out, nil
		}
		for _, f := range strings.Split(s, ",") {
			d, err := strconv.Atoi(f)
			if err != nil || d < 0 {
				return nil, fmt.Errorf("plan: subspace key %q: bad dimension %q", key, f)
			}
			out = append(out, d)
		}
		return out, nil
	}
	if keptTO, err = parse(toPart); err != nil {
		return nil, nil, err
	}
	if keptPO, err = parse(poPart); err != nil {
		return nil, nil, err
	}
	return keptTO, keptPO, nil
}
