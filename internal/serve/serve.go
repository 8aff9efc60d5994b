package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	tss "repro"
	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/store"
)

// DefaultCacheCapacity is how many per-request-orders results each
// snapshot of a table memoises when neither the server nor the table
// spec overrides it.
const DefaultCacheCapacity = plan.DefaultOrdersCap

// DefaultCheckpointEvery is the WAL size past which a batch triggers a
// checkpoint (snapshot rewrite + log truncation).
const DefaultCheckpointEvery = 4 << 20

// Config tunes a Server.
type Config struct {
	// CacheCapacity sizes each new table's cache of per-request-orders
	// results (0 = DefaultCacheCapacity).
	CacheCapacity int
	// Store, when non-nil, makes every table durable: batches append
	// to a write-ahead log before publishing, logs checkpoint into
	// snapshots, and tables recover on startup (see Recover).
	Store store.Store
	// CheckpointEvery is the WAL byte size past which a batch
	// checkpoints its table (0 = DefaultCheckpointEvery).
	CheckpointEvery int64
	// Shard, when non-nil, declares this node's cluster identity
	// (tssserve -shard-of). It is surfaced in /statsz and enforced
	// against the coordinator's X-Tss-Expect-Shard routing assertion,
	// so a mis-wired topology (shard URLs in the wrong order, or a node
	// from another cluster) is a hard 409 instead of silently wrong
	// partitions.
	Shard *ShardIdentity
	// StreamHeartbeat is the idle interval between heartbeat records on
	// streamed responses (0 = DefaultStreamHeartbeat).
	StreamHeartbeat time.Duration
	// ReadOnly makes the HTTP surface reject mutations (creates, drops,
	// batches) with 403 — follower mode. Replicated state still applies
	// through the in-process ImportSnapshot/ApplyReplicated path, which
	// is how a follower stays a faithful mirror: the primary is the only
	// writer its tables ever see.
	ReadOnly bool
}

// Server is the catalog of named skyline tables plus the HTTP handlers
// that serve them. The zero value is not usable; construct with New or
// NewWithConfig.
type Server struct {
	mu     sync.RWMutex
	tables map[string]*tableEntry

	cacheCap        int
	store           store.Store // nil = ephemeral
	checkpointEvery int64
	shard           *ShardIdentity
	streamHeartbeat time.Duration
	readOnly        bool
	checkpointErrs  atomic.Int64
	started         time.Time
	queries         atomic.Int64
}

// New creates an empty, ephemeral (storeless) catalog. cacheCap sizes
// each new table's cache of per-request-orders results (0 selects
// DefaultCacheCapacity).
func New(cacheCap int) *Server {
	return NewWithConfig(Config{CacheCapacity: cacheCap})
}

// NewWithConfig creates a catalog with the given configuration. When a
// store is attached, call Recover before serving to load persisted
// tables.
func NewWithConfig(cfg Config) *Server {
	if cfg.CacheCapacity <= 0 {
		cfg.CacheCapacity = DefaultCacheCapacity
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = DefaultCheckpointEvery
	}
	return &Server{
		tables:          make(map[string]*tableEntry),
		cacheCap:        cfg.CacheCapacity,
		store:           cfg.Store,
		checkpointEvery: cfg.CheckpointEvery,
		shard:           cfg.Shard,
		streamHeartbeat: cfg.StreamHeartbeat,
		readOnly:        cfg.ReadOnly,
		started:         time.Now(),
	}
}

// Recover loads every table persisted in the attached store — the
// latest snapshot with all logged batches replayed — and publishes
// each at its recovered version. Call once, before serving traffic.
func (s *Server) Recover() ([]TableInfo, error) {
	if s.store == nil {
		return nil, nil
	}
	names, err := s.store.List()
	if err != nil {
		return nil, err
	}
	var infos []TableInfo
	for _, name := range names {
		snap, err := s.store.Load(name)
		if err != nil {
			return infos, fmt.Errorf("recover table %q: %w", name, err)
		}
		spec, err := specFromStore(name, snap)
		if err != nil {
			return infos, fmt.Errorf("recover table %q: %w", name, err)
		}
		e, err := newTableEntry(spec, s.cacheCap, snap.Version)
		if err != nil {
			return infos, fmt.Errorf("recover table %q: %w", name, err)
		}
		s.mu.Lock()
		s.tables[name] = e
		s.mu.Unlock()
		infos = append(infos, e.info())
	}
	return infos, nil
}

// CreateTable validates the spec, builds the initial snapshot and adds
// the table to the catalog. Fails if the name is taken — checked both
// before the (potentially expensive) snapshot build and again when
// publishing, so duplicate creates fail fast without burning an index
// build and concurrent same-name creates still serialize correctly.
// With a store attached, the initial snapshot is persisted before the
// table becomes visible.
func (s *Server) CreateTable(spec TableSpec) (TableInfo, error) {
	s.mu.RLock()
	_, dup := s.tables[spec.Name]
	s.mu.RUnlock()
	if dup {
		return TableInfo{}, ErrTableExists
	}
	e, err := newTableEntry(spec, s.cacheCap, 0)
	if err != nil {
		return TableInfo{}, err
	}
	// The snapshot build above ran without the lock; persisting runs
	// inside the critical section, after winning the name, so a losing
	// concurrent create can never overwrite — or clean up — the
	// winner's durable state.
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.tables[spec.Name]; dup {
		return TableInfo{}, ErrTableExists
	}
	if s.store != nil {
		img, err := e.storeSnapshot(e.current())
		if err != nil {
			return TableInfo{}, err
		}
		if err := s.store.SaveSnapshot(spec.Name, img); err != nil {
			return TableInfo{}, fmt.Errorf("%w: persist table: %v", errStorage, err)
		}
	}
	s.tables[spec.Name] = e
	return e.info(), nil
}

// DropTable removes a table from the catalog and, with a store
// attached, its persisted state; false means no such table. In-flight
// queries on its last snapshot finish normally. The persisted state
// goes first: when the store cannot remove it, Recover would bring the
// table back at the next start, so the table stays in the catalog and
// the caller gets the error instead of a drop that does not last.
func (s *Server) DropTable(name string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[name]; !ok {
		return false, nil
	}
	if s.store != nil {
		if err := s.store.Drop(name); err != nil {
			return false, fmt.Errorf("%w: drop table %q: %v", errStorage, name, err)
		}
	}
	delete(s.tables, name)
	return true, nil
}

// applyBatch runs a batch through the entry with the server's
// persistence hooks: the mutation is WAL-appended before the snapshot
// publishes, and an oversized log checkpoints afterwards.
func (s *Server) applyBatch(e *tableEntry, req BatchRequest) (BatchResponse, error) {
	var persist func(version int64) error
	if s.store != nil {
		persist = func(version int64) error {
			m, err := e.mutationRecord(version, req)
			if err != nil {
				return err
			}
			if err := s.store.AppendMutation(e.name, m); err != nil {
				return fmt.Errorf("%w: persist batch: %v", errStorage, err)
			}
			return nil
		}
	}
	resp, err := e.applyBatch(req, persist)
	if err != nil || s.store == nil {
		return resp, err
	}
	s.maybeCheckpoint(e)
	return resp, nil
}

// checkpointDegradedAfter is the consecutive-failure count past which a
// table's stuck checkpointing is surfaced as a degraded /healthz: the
// WAL is still absorbing batches durably, but it can no longer compact,
// so it grows without bound until an operator intervenes.
const checkpointDegradedAfter = 3

// checkpointMaxSkip caps the retry backoff (in oversized-log batches
// skipped between attempts).
const checkpointMaxSkip = 64

// maybeCheckpoint runs the checkpoint policy after a durable batch: an
// oversized log is compacted into a fresh snapshot. The batch itself is
// already durable in the WAL, so a failed checkpoint only defers
// compaction — it must never fail the request. But it must not be
// forgotten either: retries back off batch-counted (1, 2, 4, …
// oversized batches skipped between attempts, capped) so a broken disk
// isn't hammered with a full snapshot encode per batch yet recovers by
// itself, and the consecutive-failure streak drives the /healthz
// degraded flag once it crosses the threshold.
func (s *Server) maybeCheckpoint(e *tableEntry) {
	size, err := s.store.LogSize(e.name)
	if err != nil || size < s.checkpointEvery {
		return
	}
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	if e.ckptSkipLeft > 0 {
		e.ckptSkipLeft--
		return
	}
	cur := e.current()
	img, err := e.storeSnapshot(cur)
	if err == nil {
		err = s.store.SaveSnapshot(e.name, img)
	}
	if err != nil {
		s.checkpointErrs.Add(1)
		e.ckptStreak.Add(1)
		if e.ckptSkip == 0 {
			e.ckptSkip = 1
		} else if e.ckptSkip < checkpointMaxSkip {
			e.ckptSkip *= 2
		}
		e.ckptSkipLeft = e.ckptSkip
		return
	}
	e.ckptSkip, e.ckptSkipLeft = 0, 0
	e.ckptStreak.Store(0)
}

// CheckpointStuck lists the tables whose checkpointing has failed
// checkpointDegradedAfter or more times in a row — the /healthz
// degraded signal.
func (s *Server) CheckpointStuck() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var names []string
	for name, e := range s.tables {
		if e.ckptStreak.Load() >= checkpointDegradedAfter {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// Table looks a catalog entry up.
func (s *Server) table(name string) (*tableEntry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.tables[name]
	return e, ok
}

// Tables lists catalog entries sorted by name.
func (s *Server) Tables() []TableInfo {
	s.mu.RLock()
	entries := make([]*tableEntry, 0, len(s.tables))
	for _, e := range s.tables {
		entries = append(entries, e)
	}
	s.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	infos := make([]TableInfo, len(entries))
	for i, e := range entries {
		infos[i] = e.info()
	}
	return infos
}

// Stats renders the /statsz body.
func (s *Server) Stats() StatsResponse {
	domTests, blockSkips := core.KernelCounters()
	return StatsResponse{
		UptimeSeconds:    time.Since(s.started).Seconds(),
		Tables:           s.Tables(),
		TotalQueries:     s.queries.Load(),
		Algorithms:       core.AlgorithmNames(),
		Durable:          s.store != nil,
		CheckpointErrors: s.checkpointErrs.Load(),
		CheckpointStuck:  s.CheckpointStuck(),
		ReadOnly:         s.readOnly,
		Shard:            s.shard,
		KernelDomTests:   domTests,
		KernelBlockSkips: blockSkips,
	}
}

// ShardDirectHeader marks coordinator→shard (and follower→primary)
// traffic that a dual-role node must answer from its local catalog
// instead of routing back into the cluster layer. The cluster package
// re-exports it; the definition lives here beside ExpectShardHeader so
// clients below the cluster layer can set it.
const ShardDirectHeader = "X-Tss-Shard-Direct"

// ExpectShardHeader is the coordinator's routing assertion: every
// scatter request names the shard identity ("index/count") it believes
// it is talking to, and a node started with -shard-of rejects a
// mismatch with 409 — catching mis-ordered shard URL lists before they
// corrupt partitions.
const ExpectShardHeader = "X-Tss-Expect-Shard"

// checkShardIdentity enforces ExpectShardHeader when both sides declare
// an identity. Requests without the header (plain clients) always pass.
func (s *Server) checkShardIdentity(r *http.Request) error {
	want := r.Header.Get(ExpectShardHeader)
	if want == "" || s.shard == nil {
		return nil
	}
	if got := fmt.Sprintf("%d/%d", s.shard.Index, s.shard.Count); got != want {
		return fmt.Errorf("shard identity mismatch: this node is %s, coordinator expected %s", got, want)
	}
	return nil
}

// ErrTableExists is returned by CreateTable when the name is taken.
var ErrTableExists = errors.New("table already exists")

// errStorage marks server-side storage failures, so handlers answer
// them with a 5xx (the request was well-formed; the disk was not)
// instead of a client error.
var errStorage = errors.New("storage failure")

// statusFor maps a handler error to its HTTP status. Context errors
// surface when a server-side request timeout (or a disconnecting
// client) cancels a running query — the request was fine, the time
// budget was not.
func statusFor(err error) int {
	switch {
	case errors.Is(err, errStorage):
		return http.StatusInternalServerError
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled):
		return 499 // client closed request (nginx convention)
	}
	return http.StatusBadRequest
}

// Handler returns the HTTP API:
//
//	GET    /healthz                           liveness
//	GET    /statsz                            catalog + traffic statistics
//	GET    /tables                            list tables
//	POST   /tables                            create a table (TableSpec)
//	GET    /tables/{name}                     table info
//	DELETE /tables/{name}                     drop a table
//	POST   /tables/{name}/query               skyline query (QueryRequest; ?stream=1, ?limit=)
//	POST   /tables/{name}/rows:batch          batched mutation (BatchRequest)
//	GET    /tables/{name}/stats               row count + TO min/max
//	POST   /tables/{name}/domcount            per-candidate partial rank scores (DomCountRequest)
//	GET    /tables/{name}/replica/snapshot    replication: columnar snapshot for follower bootstrap
//	GET    /tables/{name}/replica/log         replication: committed WAL frames (?after=)
//
// Every /tables/{name}/... route honours ?minVersion=N (412 when the
// serving snapshot is older).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// Still 200 when degraded: the node serves reads and absorbs
		// durable batches fine, it just cannot compact its WAL — a
		// liveness probe must not kill it, but monitors must see it.
		body := map[string]any{"status": "ok"}
		if stuck := s.CheckpointStuck(); len(stuck) > 0 {
			body["status"] = "degraded"
			body["checkpointStuck"] = stuck
			body["checkpointErrors"] = s.checkpointErrs.Load()
		}
		WriteJSON(w, http.StatusOK, body)
	})
	mux.HandleFunc("GET /statsz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /tables", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, s.Tables())
	})
	mux.HandleFunc("POST /tables", s.handleCreate)
	mux.HandleFunc("GET /tables/{name}", s.withTable(func(w http.ResponseWriter, r *http.Request, e *tableEntry) {
		WriteJSON(w, http.StatusOK, e.info())
	}))
	mux.HandleFunc("DELETE /tables/{name}", func(w http.ResponseWriter, r *http.Request) {
		if err := s.checkWritable(); err != nil {
			WriteError(w, http.StatusForbidden, err)
			return
		}
		ok, err := s.DropTable(r.PathValue("name"))
		if err != nil {
			WriteError(w, statusFor(err), err)
			return
		}
		if !ok {
			WriteError(w, http.StatusNotFound, fmt.Errorf("no table %q", r.PathValue("name")))
			return
		}
		WriteJSON(w, http.StatusOK, map[string]string{"dropped": r.PathValue("name")})
	})
	mux.HandleFunc("GET /tables/{name}/stats", s.withTable(s.handleTableStats))
	mux.HandleFunc("POST /tables/{name}/rows:batch", s.withTable(s.handleBatch))
	mux.HandleFunc("POST /tables/{name}/query", s.withTable(s.postQuery))
	mux.HandleFunc("POST /tables/{name}/domcount", s.withTable(s.handleDomCount))
	mux.HandleFunc("GET /tables/{name}/replica/snapshot", s.withTable(s.handleReplicaSnapshot))
	mux.HandleFunc("GET /tables/{name}/replica/log", s.withTable(s.handleReplicaLog))
	return mux
}

// checkWritable rejects external mutations on a read-only follower.
func (s *Server) checkWritable() error {
	if s.readOnly {
		return fmt.Errorf("read-only follower: mutations go to the primary")
	}
	return nil
}

// withTable resolves the {name} path value to a catalog entry and
// enforces read-at-version pinning: ?minVersion=N refuses to answer
// from a snapshot older than N with 412, so a coordinator failing a
// read over to a replica never observes state older than the query's
// pinned version — a stale follower is an explicit refusal, not a
// silently time-traveling answer.
func (s *Server) withTable(fn func(http.ResponseWriter, *http.Request, *tableEntry)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		e, ok := s.table(name)
		if !ok {
			WriteError(w, http.StatusNotFound, fmt.Errorf("no table %q", name))
			return
		}
		if v := r.URL.Query().Get("minVersion"); v != "" {
			minV, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				WriteError(w, http.StatusBadRequest, fmt.Errorf("bad minVersion=%q: %w", v, err))
				return
			}
			if cur := e.current().version; cur < minV {
				WriteError(w, http.StatusPreconditionFailed,
					fmt.Errorf("table %q at version %d, below pinned minVersion %d", name, cur, minV))
				return
			}
		}
		fn(w, r, e)
	}
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var spec TableSpec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxCreateBody)).Decode(&spec); err != nil {
		WriteError(w, BodyErrorStatus(err), fmt.Errorf("bad table spec: %w", err))
		return
	}
	// Partitioning is the coordinator's concern; a single node serving
	// it unpartitioned would silently defeat the request's intent.
	if spec.Partition != nil {
		WriteError(w, http.StatusBadRequest,
			fmt.Errorf("partition spec is only valid against a cluster coordinator"))
		return
	}
	if err := s.checkShardIdentity(r); err != nil {
		WriteError(w, http.StatusConflict, err)
		return
	}
	if err := s.checkWritable(); err != nil {
		WriteError(w, http.StatusForbidden, err)
		return
	}
	info, err := s.CreateTable(spec)
	if errors.Is(err, ErrTableExists) {
		WriteError(w, http.StatusConflict, fmt.Errorf("table %q already exists", spec.Name))
		return
	}
	if err != nil {
		WriteError(w, statusFor(err), err)
		return
	}
	WriteJSON(w, http.StatusCreated, info)
}

// maxQueryBody bounds a query request body. A lattice of 500 values
// with all its edges is ~100 KB; nothing legitimate comes near 4 MiB.
const maxQueryBody = 4 << 20

// MaxDomCountBody bounds /domcount and rows:batch request bodies on
// both tiers. A /domcount candidate list is a coordinator's whole
// merged skyline, ~40 bytes of JSON per row: 64 MiB holds well over a
// million candidates. A batch becomes one WAL record, at most 4× its
// JSON (a 2-byte `0,` TO value encodes to 8 bytes), so 64 MiB keeps
// every record under the WAL's 256 MiB record limit, past which replay
// and followers would refuse a batch already acknowledged.
const MaxDomCountBody = 64 << 20

// MaxCreateBody bounds a table-create (POST /tables) body on both
// tiers. The paper's default table — N = 10⁶ rows of 2 TO and 2 PO
// columns — is a 36.7 MB create body (36.75 bytes per row), so 64 MiB
// admits that shape up to ≈1.8·10⁶ rows.
const MaxCreateBody = 64 << 20

// BodyErrorStatus is 413 for a body cut off by http.MaxBytesReader and
// 400 for any other decode error.
func BodyErrorStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// postQuery answers POST /tables/{name}/query, the one read route: pin
// the snapshot once and deliver the executor's answer as one JSON body
// or — under ?stream=1 — as a record stream. ?limit (else the body's
// limit) truncates the delivered rows without changing the query: count
// always reports every certified row.
func (s *Server) postQuery(w http.ResponseWriter, r *http.Request, e *tableEntry) {
	var req QueryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxQueryBody)).Decode(&req); err != nil {
		WriteError(w, BodyErrorStatus(err), fmt.Errorf("bad query: %w", err))
		return
	}
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("bad limit=%q: %w", v, err))
			return
		}
		if n != 0 {
			req.Limit = n
		}
	}
	// A malformed query is a client error, raised before any work starts
	// or any stream opens.
	q, err := e.schema.PlanQuery(req)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	rq := readQuery{plan: q, explain: req.Explain, limit: req.Limit}
	snap := e.current()
	if WantsStream(r) {
		s.streamQuery(w, r, e, snap, rq)
		return
	}
	res, explain, err := s.execute(r.Context(), e, snap, &rq, nil)
	if err != nil {
		WriteError(w, statusFor(err), err)
		return
	}
	head := ResponseHead{Table: e.name, Version: snap.version, Rows: snap.table.Len(), Count: len(res.Rows)}
	tail := ResponseTail{Metrics: res.Metrics, CacheHit: res.CacheHit, Algo: explain.Algorithm}
	if rq.explain {
		tail.Plan = explain
	}
	rows := res.Rows
	if rq.limit > 0 && rq.limit < len(rows) {
		rows = rows[:rq.limit]
	}
	WriteQueryResponse(w, head, len(rows), func(b []byte, i int) []byte {
		to, po := snap.table.RowCodes(rows[i])
		return AppendRow(b, e.schema, rows[i], to, po, nil)
	}, &tail)
}

// readQuery is a validated read request: the logical query the planner
// plans (placement and cache routing), plus what only the renderer
// applies.
type readQuery struct {
	plan    plan.Query
	explain bool
	limit   int // delivered-row truncation
}

// execute answers one compiled query entirely from one pinned snapshot
// and moves the traffic counters. With emit set, rows are delivered as
// the streaming executor certifies them. ctx rides along, so a request
// timeout or a vanished client cancels the run cooperatively.
func (s *Server) execute(ctx context.Context, e *tableEntry, snap *snapshot, rq *readQuery,
	emit func(plan.StreamRow) error) (res *tss.SkylineResult, explain *plan.Explain, err error) {
	if emit == nil {
		res, explain, err = snap.table.QueryContext(ctx, rq.plan)
	} else {
		res, explain, err = snap.table.QueryStream(ctx, rq.plan, emit)
	}
	if err != nil {
		return nil, nil, err
	}
	s.countQuery(e)
	e.countCache(explain, &rq.plan)
	return res, explain, nil
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request, e *tableEntry) {
	var req BatchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxDomCountBody)).Decode(&req); err != nil {
		WriteError(w, BodyErrorStatus(err), fmt.Errorf("bad batch: %w", err))
		return
	}
	if len(req.RemoveSharded) > 0 {
		WriteError(w, http.StatusBadRequest,
			fmt.Errorf("removeSharded is only valid against a cluster coordinator (row indexes here are plain `remove`)"))
		return
	}
	if err := s.checkShardIdentity(r); err != nil {
		WriteError(w, http.StatusConflict, err)
		return
	}
	if err := s.checkWritable(); err != nil {
		WriteError(w, http.StatusForbidden, err)
		return
	}
	resp, err := s.applyBatch(e, req)
	if err != nil {
		WriteError(w, statusFor(err), err)
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}

// handleTableStats answers GET /tables/{name}/stats: the serving
// snapshot's row count and TO bounds. Computing them is lazy-cached on
// the snapshot's table, so polling this endpoint is cheap; the cluster
// coordinator reads it per query to pin versions and prune shards.
func (s *Server) handleTableStats(w http.ResponseWriter, r *http.Request, e *tableEntry) {
	snap := e.current()
	WriteJSON(w, http.StatusOK, TableStatsInfo{
		Table:   e.name,
		Version: snap.version,
		Rows:    snap.table.Len(),
		Stats:   snap.table.Stats(),
	})
}

// handleDomCount answers POST /tables/{name}/domcount: per candidate
// row (value-addressed), this shard's partial contribution to the
// requested ranking's global score — dominance counts for "domcount"
// (the default, and the endpoint's original contract), dominator-count
// histograms for "dpidp". This is the shard-side half of distributed
// ranked top-k.
func (s *Server) handleDomCount(w http.ResponseWriter, r *http.Request, e *tableEntry) {
	req, rows, err := e.schema.ReadDomCount(http.MaxBytesReader(w, r.Body, MaxDomCountBody))
	if err != nil {
		WriteError(w, BodyErrorStatus(err), fmt.Errorf("bad domcount request: %w", err))
		return
	}
	q, err := e.schema.PlanQuery(QueryRequest{Orders: req.Orders, Subspace: req.Subspace, Where: req.Where})
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	snap := e.current()
	rank := req.Rank
	if rank == "" {
		rank = string(plan.RankDomCount)
	}
	parts, err := snap.table.RankPartials(r.Context(), q, rank, len(rows), func(i int) ([]int64, []int32) {
		return rows[i].TO, rows[i].PO
	})
	if err != nil {
		WriteError(w, statusFor(err), err)
		return
	}
	WriteJSON(w, http.StatusOK, DomCountResponse{Table: e.name, Version: snap.version, Counts: parts.Counts, Hists: PackHists(parts.Hists)})
}

func (s *Server) countQuery(e *tableEntry) {
	s.queries.Add(1)
	e.queries.Add(1)
}

// WriteJSON writes body as one JSON response with the given status,
// encoded through a pooled buffer before anything is sent, so a body
// that fails to encode is a 500 rather than a torn one.
func WriteJSON(w http.ResponseWriter, status int, body any) {
	bd := getBody()
	defer bodyPool.Put(bd)
	if err := json.NewEncoder(bd).Encode(body); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(bd.b)
}

// WriteError writes err as an {"error": …} body with the given status.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, errorResponse{Error: err.Error()})
}
