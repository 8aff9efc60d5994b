package cluster

import (
	"encoding/json"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/serve"
)

// The coordinator memo. A shard's answer to one leg body is a function
// of the snapshot it read, and every shard names that snapshot in the
// ETag of its /stats and /query answers ("<epoch>.<version>", the epoch
// drawn afresh for every table entry, so a dropped and recreated table,
// a restarted node and a follower never share a tag). A merged answer
// is therefore a function of the shards' ETag vector: while every
// shard's /stats still reports the vector an answer was merged under,
// the buffered runner serves that answer again without a leg, a merge,
// a /domcount fan-out or a re-rank. Streams never consult it.

// memoCap bounds the merged answers one table keeps, like
// plan.DefaultSubspaceCap bounds a node's subspace memo.
const memoCap = 32

// memo is one cluster table's merged answers under one ETag vector;
// the zero value is empty and ready.
type memo struct {
	mu      sync.Mutex
	tags    []string             // the vector every entry was merged under
	entries map[string]*gathered // by memoKey; read-only once stored
}

// get returns the answer stored under key for the vector tags, if any.
// A vector other than the memo's clears it: its entries describe
// snapshots some shard no longer serves.
func (m *memo) get(tags []string, key string) *gathered {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !slices.Equal(m.tags, tags) {
		m.tags, m.entries = nil, nil
		return nil
	}
	return m.entries[key]
}

// put stores gr under key for the vector tags, clearing entries of any
// other vector; past memoCap keys an arbitrary entry makes room.
func (m *memo) put(tags []string, key string, gr *gathered) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.entries == nil || !slices.Equal(m.tags, tags) {
		m.tags, m.entries = tags, make(map[string]*gathered)
	}
	if _, ok := m.entries[key]; !ok && len(m.entries) >= memoCap {
		for k := range m.entries {
			delete(m.entries, k)
			break
		}
	}
	m.entries[key] = gr
}

// memoKey names the merged answer this pass computes: the leg body
// (prepare has pinned its algorithm) plus what only the coordinator
// applies to the merge — top-k, the ranking and a ranking's reference
// point. The limit and explain shape only the delivery and are left
// out. ok is false when the pass must neither read nor fill the memo: a
// noCache request, or a shard that sent no ETag.
func (g *gather) memoKey() (key string, ok bool) {
	if g.body.NoCache || slices.Contains(g.tags, "") {
		return "", false
	}
	k := struct {
		Leg   *serve.QueryRequest `json:"leg"`
		TopK  int                 `json:"topK"`
		Rank  plan.Rank           `json:"rank"`
		Ideal []int64             `json:"ideal"`
	}{Leg: &g.body, TopK: g.q.TopK, Rank: g.q.Rank}
	if g.ideal == nil {
		k.Ideal = g.q.Ideal
	}
	b, err := json.Marshal(k)
	return string(b), err == nil
}

// noteLeg checks one leg's ETag against its shard's statistics: a leg
// answered from another snapshot (a write or a failover in between)
// leaves the merged answer unfit for the memo.
func (g *gather) noteLeg(i int, etag string) {
	if etag == "" || etag != g.tags[i] {
		g.stale.Store(true)
	}
}

// asHit is gr as a memo hit serves it again: the same rows, counts,
// version vector and pruned shards, no shard work.
func (gr *gathered) asHit() *gathered {
	hit := *gr
	hit.metrics = core.MetricsExport{}
	hit.cacheHit = true
	return &hit
}
