package serve

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/plan"
)

// Wire types of the tssserve HTTP/JSON API. Every request and response
// body is one of these; field names are the contract documented in the
// README's tssserve section.

// OrderSpec describes one partially ordered column: its value labels
// plus the preference edges ([better, worse] label pairs, transitive).
type OrderSpec struct {
	Name   string      `json:"name,omitempty"`
	Values []string    `json:"values"`
	Edges  [][2]string `json:"edges,omitempty"`
}

// RowSpec is one row: TO column values (smaller = better) and one PO
// value label per order.
type RowSpec struct {
	TO []int64  `json:"to"`
	PO []string `json:"po,omitempty"`
}

// TableSpec creates a table (POST /tables).
type TableSpec struct {
	Name      string      `json:"name"`
	TOColumns []string    `json:"toColumns"`
	Orders    []OrderSpec `json:"orders,omitempty"`
	Rows      []RowSpec   `json:"rows,omitempty"`
	// CacheCapacity sizes the table's cache of per-request-orders
	// results: how many each snapshot's memo keeps (0 = the server
	// default).
	CacheCapacity int `json:"cacheCapacity,omitempty"`
	// Partition selects how a cluster coordinator spreads rows over its
	// shards. Only meaningful against a coordinator; a single-node
	// server rejects it rather than silently serving an unpartitioned
	// table.
	Partition *PartitionSpec `json:"partition,omitempty"`
}

// PartitionSpec configures a cluster table's row placement.
type PartitionSpec struct {
	// By is "hash" (default: FNV over the row's values, uniform) or
	// "range" (contiguous slices of one TO column — the sorted
	// partitioning that makes statistics-driven shard pruning bite).
	By string `json:"by,omitempty"`
	// Column names the TO column range partitioning splits on (default:
	// the first TO column).
	Column string `json:"column,omitempty"`
	// Bounds are the N-1 ascending split points of an N-shard range
	// partition: shard i serves values < Bounds[i], the last shard the
	// rest. Empty bounds are derived from the create's rows by equal
	// frequency.
	Bounds []int64 `json:"bounds,omitempty"`
}

// TableInfo describes a table (GET /tables/{name}, /tables, /statsz).
// Coordinator responses aggregate over shards: Version is the sum of
// the shard versions (monotonic under mutations) and Versions carries
// the per-shard version vector.
type TableInfo struct {
	Name      string      `json:"name"`
	Version   int64       `json:"version"`
	Rows      int         `json:"rows"`
	TOColumns []string    `json:"toColumns"`
	Orders    []OrderSpec `json:"orders,omitempty"`
	Stats     TableStats  `json:"stats"`
	Versions  []int64     `json:"versions,omitempty"`
}

// TableStats carries a table's served-traffic counters. CacheHits and
// CacheMisses count served per-request-orders queries by their memo
// outcome (§V-B's cache of past dynamic results); they are exact and
// cumulative across snapshot swaps (a batch mutation drops those entries
// with the snapshot, but these counters never reset).
type TableStats struct {
	Queries     int64 `json:"queries"`
	Mutations   int64 `json:"mutations"`
	CacheHits   int64 `json:"cacheHits"`
	CacheMisses int64 `json:"cacheMisses"`
	// PlanCache splits the planner-path skyline-memo counters by route
	// (full / subspace / maintained) and carries the memo-maintenance
	// counters, so maintenance efficacy is observable per table.
	PlanCache PlanCacheStats `json:"planCache"`
}

// PlanCacheStats is the by-route breakdown of the planner's skyline
// memo plus its maintenance counters. Hits are exclusive: a maintained
// hit (entry carried across mutations by delta maintenance) is not also
// counted as a full or subspace hit. Misses count memo-cacheable
// queries (no predicates) that found no entry. Advances, Promotions,
// MaintFallbacks and SubspaceEvictions come from the memo lineage and
// are cumulative across the table's whole mutation history.
type PlanCacheStats struct {
	FullHits          int64 `json:"fullHits"`
	FullMisses        int64 `json:"fullMisses"`
	SubspaceHits      int64 `json:"subspaceHits"`
	SubspaceMisses    int64 `json:"subspaceMisses"`
	MaintainedHits    int64 `json:"maintainedHits"`
	Advances          int64 `json:"advances"`
	Promotions        int64 `json:"promotions"`
	MaintFallbacks    int64 `json:"maintFallbacks"`
	SubspaceEvictions int64 `json:"subspaceEvictions"`
	// Ranked top-k queries by where their scores came from: the
	// incrementally maintained score index, the memoised skyline (scored
	// on demand), or a cold skyline compute.
	RankedIndex int64 `json:"rankedIndex,omitempty"`
	RankedMemo  int64 `json:"rankedMemo,omitempty"`
	RankedCold  int64 `json:"rankedCold,omitempty"`
	// Score-index maintenance counters from the memo lineage (see
	// plan.MaintStats).
	IndexAdvances  int64 `json:"indexAdvances,omitempty"`
	IndexFallbacks int64 `json:"indexFallbacks,omitempty"`
}

// Add folds another shard's counters in (cluster aggregation).
func (p *PlanCacheStats) Add(o PlanCacheStats) {
	p.FullHits += o.FullHits
	p.FullMisses += o.FullMisses
	p.SubspaceHits += o.SubspaceHits
	p.SubspaceMisses += o.SubspaceMisses
	p.MaintainedHits += o.MaintainedHits
	p.Advances += o.Advances
	p.Promotions += o.Promotions
	p.MaintFallbacks += o.MaintFallbacks
	p.SubspaceEvictions += o.SubspaceEvictions
	p.RankedIndex += o.RankedIndex
	p.RankedMemo += o.RankedMemo
	p.RankedCold += o.RankedCold
	p.IndexAdvances += o.IndexAdvances
	p.IndexFallbacks += o.IndexFallbacks
}

// BatchRequest mutates rows (POST /tables/{name}/rows:batch). Remove
// lists row indexes of the *current* snapshot; removals are applied
// first, then Add appends, and surviving rows are renumbered — row
// indexes are snapshot-scoped, so clients correlate them through the
// returned version.
type BatchRequest struct {
	Add    []RowSpec `json:"add,omitempty"`
	Remove []int     `json:"remove,omitempty"`
	// RemoveSharded addresses rows of a *cluster* table: row indexes are
	// shard-scoped, so cluster removals name the shard too (both halves
	// taken from a coordinator query response). Single-node servers
	// reject it.
	RemoveSharded []ShardRef `json:"removeSharded,omitempty"`
}

// ShardRef addresses one row of one shard of a cluster table, as
// returned (shard, row) in coordinator query responses.
type ShardRef struct {
	Shard int `json:"shard"`
	Row   int `json:"row"`
}

// BatchResponse reports the snapshot the batch produced. Coordinator
// responses carry the per-shard version vector in Versions (every
// shard is listed, mutated or not) and sum it into Version.
type BatchResponse struct {
	Table    string  `json:"table"`
	Version  int64   `json:"version"`
	Rows     int     `json:"rows"`
	Added    int     `json:"added"`
	Removed  int     `json:"removed"`
	Versions []int64 `json:"versions,omitempty"`
}

// QueryOrder is a per-request preference DAG over one PO column's value
// labels (exactly the labels the table was created with).
type QueryOrder struct {
	Edges [][2]string `json:"edges"`
}

// WhereSpec is one predicate of a constrained (planner) query. Col
// names a TO column, or — for `in` — a PO column (its OrderSpec name,
// or the positional fallback "po0", "po1", …). `le`/`ge` bound a TO
// column inclusively; `in` lists the allowed PO value labels.
type WhereSpec struct {
	Col string   `json:"col"`
	Le  *int64   `json:"le,omitempty"`
	Ge  *int64   `json:"ge,omitempty"`
	In  []string `json:"in,omitempty"`
}

// QueryRequest is a skyline query (POST /tables/{name}/query); the zero
// value asks for the table's skyline. Every field composes with every
// other (see plan.Query for the exact semantics): Subspace, Where,
// TopK/Rank, FWeights and the hint fields select the variant; the
// planner places predicates and routes through the cache, and the
// executor partitions large inputs (what ran is in the `plan` field
// when Explain is set).
type QueryRequest struct {
	// Orders makes the query *dynamic*: one preference DAG per PO column
	// replaces the table's own orders for this request — the same plan
	// over the same rows under those preferences. Empty = the table's own.
	Orders []QueryOrder `json:"orders,omitempty"`
	// Ideal is one value per TO column. With rank "ideal" it is the
	// ranking's reference point; without a rank the query is *fully
	// dynamic*: every TO comparison is on |value − ideal|, so "best" means
	// closest to the ideal.
	Ideal []int64 `json:"ideal,omitempty"`
	// Limit truncates the rows serialized into the response (0 = all);
	// Count always reports the full skyline size.
	Limit int `json:"limit,omitempty"`

	Subspace []string    `json:"subspace,omitempty"` // kept column names
	Where    []WhereSpec `json:"where,omitempty"`
	TopK     int         `json:"topK,omitempty"`
	Rank     string      `json:"rank,omitempty"` // "", or a ranking: "domcount", "ideal", "dpidp", "layer"
	// FWeights asks for the F-dominance *restricted* skyline: one lower
	// bound per table TO column, defining the linear-scoring family
	// { v : v >= w, sum(v) = 1 } over the kept TO dimensions. Combines
	// with Subspace/Where and unranked TopK, not with Rank.
	FWeights []float64 `json:"fweights,omitempty"`
	Algo     string    `json:"algo,omitempty"` // force an algorithm
	// Parallel > 0 forces that many shards, at most one per server CPU,
	// < 0 forces one shard per server CPU, 0 lets the planner decide —
	// the same contract as the tssquery -parallel flag.
	Parallel int  `json:"parallel,omitempty"`
	Explain  bool `json:"explain,omitempty"`
	// NoCache bypasses the snapshot's skyline memo (cold recompute) —
	// the differential switch for verifying maintained memo entries
	// against recomputation.
	NoCache bool `json:"noCache,omitempty"`
}

// SkylineRow is one skyline member with its snapshot-scoped row index
// and raw values. Coordinator responses set Shard: together with Row it
// forms the ShardRef a cluster removal needs.
type SkylineRow struct {
	Row   int      `json:"row"`
	TO    []int64  `json:"to"`
	PO    []string `json:"po,omitempty"`
	Shard *int     `json:"shard,omitempty"`
}

// QueryResponse answers skyline and query requests. Version identifies
// the snapshot that served the request; every row index refers to it.
// Servers write it through WriteQueryResponse: the head and the rows by
// hand, the tail by encoding/json.
type QueryResponse struct {
	ResponseHead
	Skyline []SkylineRow `json:"skyline"`
	ResponseTail
}

// ResponseHead is the part of a QueryResponse ahead of its rows.
type ResponseHead struct {
	Table   string `json:"table"`
	Version int64  `json:"version"`
	Rows    int    `json:"rows"`
	Count   int    `json:"count"`
}

// ResponseTail is the part of a QueryResponse after its rows.
type ResponseTail struct {
	Metrics  core.MetricsExport `json:"metrics"`
	CacheHit bool               `json:"cacheHit,omitempty"`
	Algo     string             `json:"algo,omitempty"`
	// Plan is the optimizer's explain output (requests with
	// "explain": true).
	Plan *plan.Explain `json:"plan,omitempty"`
	// Cluster carries scatter/gather metadata on coordinator responses.
	Cluster *ClusterMeta `json:"cluster,omitempty"`
}

// ClusterMeta describes how a coordinator answered a query: the shard
// fan-out, the per-shard snapshot version vector (index = shard;
// pruned shards report the version their statistics were read at), and
// which shards were skipped because their best possible row (the
// statistics min-corner) was already dominated by a gathered candidate.
type ClusterMeta struct {
	Shards   int     `json:"shards"`
	Versions []int64 `json:"versions"`
	Pruned   []int   `json:"pruned,omitempty"`
}

// StreamRecord is one frame of a streamed query response (?stream=1 on
// POST /tables/{t}/query, the one read route). The stream is framed as NDJSON
// (one record per line, Content-Type application/x-ndjson) or — when the
// client asks via `Accept: text/event-stream` or ?sse=1 — as SSE data
// events carrying the same JSON. Frame order: exactly one "header",
// any number of "row" and "heartbeat" records, then exactly one
// "trailer" on success or one "error" after a mid-stream failure
// (everything before the error is valid; the stream is incomplete).
type StreamRecord struct {
	Type string `json:"type"` // "header", "row", "heartbeat", "trailer", "error"

	// Header fields: the serving snapshot. Version repeats on the
	// trailer so both framing edges identify the snapshot.
	Table   string `json:"table,omitempty"`
	Version int64  `json:"version,omitempty"`
	Rows    int    `json:"rows,omitempty"`

	// Row fields: the emitted row, its 0-based emission index, and the
	// elapsed seconds from query start to certification.
	Row      *SkylineRow `json:"row,omitempty"`
	Emission int         `json:"emission,omitempty"`
	Elapsed  float64     `json:"elapsedSeconds,omitempty"`
	// Key is the row's SFS key (Σ TO + Σ topological ordinal) on
	// progressive rows: non-decreasing along the stream, ties in
	// ascending row id, and a strict t-dominator always has a strictly
	// smaller key, so a consumer merging several key-ordered streams can
	// rule this stream out as a dominator source for any candidate whose
	// key the stream has reached. Absent on
	// replayed (buffered, cache-hit, rank-ordered) streams, whose
	// emission order carries no such bound.
	Key *int64 `json:"key,omitempty"`

	// Trailer fields: the buffered QueryResponse's tail. Count is the
	// number of rows certified by the query (matching the emitted rows
	// unless ?limit truncated the stream).
	Count    int                 `json:"count,omitempty"`
	Metrics  *core.MetricsExport `json:"metrics,omitempty"`
	CacheHit bool                `json:"cacheHit,omitempty"`
	Algo     string              `json:"algo,omitempty"`
	Plan     *plan.Explain       `json:"plan,omitempty"`
	Cluster  *ClusterMeta        `json:"cluster,omitempty"`

	// Error is the mid-stream failure message ("error" records).
	Error string `json:"error,omitempty"`

	// encoded is a "row" record already written by RowRecord: the
	// stream writer sends these bytes instead of encoding the fields.
	encoded *body
}

// StatsResponse is the /statsz body.
type StatsResponse struct {
	UptimeSeconds float64     `json:"uptimeSeconds"`
	Tables        []TableInfo `json:"tables"`
	TotalQueries  int64       `json:"totalQueries"`
	Algorithms    []string    `json:"algorithms"`
	// Durable reports whether a storage engine is attached (batches
	// WAL-logged before publishing, tables recovered on restart).
	Durable bool `json:"durable"`
	// CheckpointErrors counts failed best-effort checkpoints (the WAL
	// still holds the batches; only log compaction was deferred).
	CheckpointErrors int64 `json:"checkpointErrors,omitempty"`
	// CheckpointStuck lists tables whose checkpointing keeps failing —
	// WAL compaction is stuck and the log grows until the disk recovers
	// (also the /healthz degraded flag).
	CheckpointStuck []string `json:"checkpointStuck,omitempty"`
	// ReadOnly reports follower mode: external mutations are rejected,
	// tables mirror a primary through the replication stream.
	ReadOnly bool `json:"readOnly,omitempty"`
	// Shard reports the node's cluster identity when started with
	// -shard-of (observability; also enforced against the coordinator's
	// routing header).
	Shard *ShardIdentity `json:"shard,omitempty"`
	// KernelDomTests / KernelBlockSkips are the process-wide cumulative
	// dominance-kernel counters: member dominance tests performed by the
	// columnar scans, and zone-mapped blocks skipped without scanning
	// (across every query this process served, kernel paths only). A
	// ranking's dominator scan (core.DomScan) counts the exact
	// verifications of the members its bitmaps let through and
	// contributes no KernelBlockSkips.
	KernelDomTests   int64 `json:"kernelDomTests"`
	KernelBlockSkips int64 `json:"kernelBlockSkips"`
}

// ShardIdentity is a node's position in a cluster: shard Index out of
// Count.
type ShardIdentity struct {
	Index int `json:"index"`
	Count int `json:"count"`
}

// TableStatsInfo is the GET /tables/{t}/stats body: the serving
// snapshot's version, row count and TO bounds. The cluster coordinator
// reads it from every shard before a scatter: the version pins failover
// reads, and the bounds' min corner prunes the shards a gathered row
// dominates and bounds what a streaming shard can still send (an empty
// shard sends nothing). Coordinator responses carry the merged view
// with the per-shard bodies in PerShard.
type TableStatsInfo struct {
	Table    string           `json:"table"`
	Version  int64            `json:"version"`
	Rows     int              `json:"rows"`
	Stats    *plan.Stats      `json:"stats"`
	PerShard []TableStatsInfo `json:"perShard,omitempty"`
}

// DomCountRequest (POST /tables/{t}/domcount) asks for the number of
// rows of R — the table filtered by Where — each candidate row
// dominates on the Subspace dimensions, under Orders when the ranked
// query brought its own. Candidates are value-addressed
// (not row-addressed): the cluster coordinator scores merged skyline
// rows whose ids are shard-scoped, and every shard contributes its
// partial count toward the global dominance-count rank.
type DomCountRequest struct {
	Rows     []RowSpec    `json:"rows"`
	Orders   []QueryOrder `json:"orders,omitempty"`
	Subspace []string     `json:"subspace,omitempty"`
	Where    []WhereSpec  `json:"where,omitempty"`
	// Rank selects which ranking's per-shard partial scores to compute
	// ("" = "domcount", the endpoint's original meaning). Rankings with
	// histogram-shaped partials (dpidp) answer in Hists; count-shaped
	// ones (domcount) answer in Counts.
	Rank string `json:"rank,omitempty"`
}

// DomCountResponse carries one partial score per candidate, in request
// order: Counts for count-shaped rankings, Hists for histogram-shaped
// ones (exactly one of the two is set). Hists is PackHists' packed form
// of the candidates' ascending (k, count) runs — base64 in JSON — and
// UnpackHists reads it back.
type DomCountResponse struct {
	Table   string  `json:"table"`
	Version int64   `json:"version"`
	Counts  []int64 `json:"counts"`
	Hists   []byte  `json:"hists,omitempty"`
}

// PackHists packs per-candidate k-histograms into uvarints: for each
// candidate in order, its number of runs, then per run the step from
// the previous run's k (from 0) and the run's count. The runs must be
// valid plan.KHist runs — k strictly ascending from 1, counts positive —
// so every step and every count is at least 1.
func PackHists(hists []plan.KHist) []byte {
	runs := 0
	for _, h := range hists {
		runs += len(h.Ks)
	}
	b := make([]byte, 0, len(hists)+3*runs)
	for _, h := range hists {
		b = binary.AppendUvarint(b, uint64(len(h.Ks)))
		prev := int32(0)
		for i, k := range h.Ks {
			b = binary.AppendUvarint(b, uint64(k-prev))
			b = binary.AppendUvarint(b, uint64(h.Counts[i]))
			prev = k
		}
	}
	return b
}

// UnpackHists decodes PackHists' form of n candidates' histograms. It
// returns an error, never a panic, for truncated input, trailing bytes,
// a non-minimal uvarint, a zero k step, a zero count, a k past int32, a
// count past int64, a run length the remaining bytes cannot hold and a
// candidate count other than n; it allocates only what len(b) can
// describe (every run takes at least two bytes). The views share two
// backing arrays.
func UnpackHists(b []byte, n int) ([]plan.KHist, error) {
	if n < 0 || n > len(b) {
		return nil, fmt.Errorf("packed hists: %d bytes cannot hold %d candidates", len(b), n)
	}
	next := func(what string) (uint64, error) {
		v, w := binary.Uvarint(b)
		if w <= 0 {
			return 0, fmt.Errorf("packed hists: truncated or overflowing %s", what)
		}
		if w > 1 && b[w-1] == 0 {
			return 0, fmt.Errorf("packed hists: non-minimal %s", what)
		}
		b = b[w:]
		return v, nil
	}
	hists := make([]plan.KHist, n)
	ks, counts := make([]int32, 0, len(b)/2), make([]int64, 0, len(b)/2)
	for i := range hists {
		runs, err := next("run length")
		if err != nil {
			return nil, err
		}
		if runs > uint64(len(b)/2) {
			return nil, fmt.Errorf("packed hists: candidate %d has %d runs past the end", i, runs)
		}
		from, k := len(ks), uint64(0)
		for range runs {
			step, err := next("k step")
			if err != nil {
				return nil, err
			}
			if step == 0 || step > math.MaxInt32-k {
				return nil, fmt.Errorf("packed hists: candidate %d has k step %d after k %d", i, step, k)
			}
			k += step
			c, err := next("count")
			if err != nil {
				return nil, err
			}
			if c == 0 || c > math.MaxInt64 {
				return nil, fmt.Errorf("packed hists: candidate %d has count %d at k %d", i, c, k)
			}
			ks, counts = append(ks, int32(k)), append(counts, int64(c))
		}
		if to := len(ks); to > from {
			hists[i] = plan.KHist{Ks: ks[from:to:to], Counts: counts[from:to:to]}
		}
	}
	if len(b) > 0 {
		return nil, fmt.Errorf("packed hists: %d bytes past %d candidates", len(b), n)
	}
	return hists, nil
}

// errorResponse is every non-2xx body.
type errorResponse struct {
	Error string `json:"error"`
}
