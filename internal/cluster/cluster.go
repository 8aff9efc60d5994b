// Package cluster is the multi-node serving layer: a coordinator that
// partitions tables over N tssserve shard nodes and answers queries by
// scatter/gather — plan once against merged per-shard statistics, fan
// the per-shard plan out over the ordinary HTTP/JSON API, merge the
// shard-local skylines with a t-dominance elimination pass.
//
// The decomposition is the one core.Parallel proved in-process (PR 1):
// the skyline of a union is contained in the union of the partition
// skylines, so gathering each shard's local skyline and eliminating
// cross-shard t-dominated rows is exact for every query variant —
// full, subspace (dominance on kept dimensions), constrained (pushed
// down per shard), and top-k (per-shard over-fetch of the whole local
// variant skyline, then a global re-rank at the coordinator; dominance
// counts are summed from per-shard partial counts via /domcount).
// Statistics additionally drive *shard pruning*: a shard whose best
// possible row — the min corner of its /stats bounds — is already
// t-dominated by a gathered candidate (with a preference-top PO value)
// cannot contribute a skyline row and is never queried.
//
// Consistency: each shard answers from one immutable snapshot of its
// partition and the response carries the per-shard version vector, but
// there is no cross-shard transaction — a merged result reflects one
// snapshot per shard, not necessarily one global instant. Mutations
// routed through the coordinator are atomic per shard only.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/poset"
	"repro/internal/serve"
	"repro/internal/store"
)

// Config assembles a Coordinator.
type Config struct {
	// Shards are the shard nodes' base URLs, in shard-index order. The
	// order is part of the cluster's identity: rows are placed by index.
	Shards []string
	// Replicas lists each shard's follower base URLs: Replicas[i] are
	// read-only mirrors of Shards[i] (tssserve -follower-of). Reads fail
	// over to them when the primary is unreachable; mutations never do.
	// The slice may be shorter than Shards — missing entries mean the
	// shard has no followers.
	Replicas [][]string
	// Client overrides the HTTP client (default: 30 s timeout). Streamed
	// scatter legs reuse its transport without the overall timeout.
	Client *http.Client
	// StreamHeartbeat overrides the idle heartbeat interval on streamed
	// responses (default serve.DefaultStreamHeartbeat).
	StreamHeartbeat time.Duration
	// Catalog, when non-nil, persists the coordinator's table catalog —
	// each table's partition spec with explicit range bounds — so a
	// restarted coordinator recovers real placement in Adopt instead of
	// falling back to hash routing. Without it, range-partitioned
	// creates are refused: their bounds would be unrecoverable.
	Catalog store.Store
}

// Coordinator is the scatter/gather front end over a fixed set of
// shard nodes. The table catalog is in-memory; Adopt rebuilds it from
// the shards after a restart.
type Coordinator struct {
	shards   []*shardClient
	replicas [][]*shardClient // replicas[i]: shard i's followers, failover order

	mu     sync.RWMutex
	tables map[string]*ctable

	catalog store.Store                    // nil = in-memory catalog only
	saved   map[string]serve.PartitionSpec // persisted specs, loaded at New for Adopt

	queries    atomic.Int64
	pruned     atomic.Int64 // shards skipped by statistics-driven pruning
	failovers  atomic.Int64 // read legs answered by a follower
	memoHits   atomic.Int64 // buffered reads served by a revalidated merged answer
	memoMisses atomic.Int64 // memoisable buffered reads that scattered

	streamHeartbeat time.Duration
}

// ctable is one cluster table: its schema, compiled base preference
// domains (the merge pass's t-dominance oracle), row router and memo of
// merged answers.
type ctable struct {
	name    string
	schema  *serve.Schema
	domains []*poset.Domain
	part    *partitioner
	memo    memo
}

// New builds a coordinator over the given shard URLs.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("cluster: no shard URLs")
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	streamClient := &http.Client{}
	*streamClient = *client
	streamClient.Timeout = 0
	co := &Coordinator{
		tables:          make(map[string]*ctable),
		streamHeartbeat: cfg.StreamHeartbeat,
		catalog:         cfg.Catalog,
		saved:           make(map[string]serve.PartitionSpec),
	}
	newClient := func(raw string, index int) (*shardClient, error) {
		base := trimSlash(strings.TrimSpace(raw))
		// Reject malformed bases at startup — a blank element (e.g. a
		// trailing comma in -coordinator) would otherwise surface only as
		// a confusing per-request transport error.
		if u, err := url.Parse(base); err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("%q is not an absolute base URL", raw)
		}
		return &shardClient{
			base:       base,
			index:      index,
			count:      len(cfg.Shards),
			http:       client,
			streamHTTP: streamClient,
		}, nil
	}
	for i, base := range cfg.Shards {
		sc, err := newClient(base, i)
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d: %w", i, err)
		}
		for j := 0; j < i; j++ {
			if co.shards[j].base == sc.base {
				return nil, fmt.Errorf("cluster: duplicate shard URL %q", sc.base)
			}
		}
		co.shards = append(co.shards, sc)
	}
	if len(cfg.Replicas) > len(cfg.Shards) {
		return nil, fmt.Errorf("cluster: replica lists for %d shards, cluster has %d", len(cfg.Replicas), len(cfg.Shards))
	}
	co.replicas = make([][]*shardClient, len(cfg.Shards))
	for i, followers := range cfg.Replicas {
		for _, base := range followers {
			// A follower client asserts the same shard identity as its
			// primary: it mirrors that shard's partition.
			rc, err := newClient(base, i)
			if err != nil {
				return nil, fmt.Errorf("cluster: shard %d replica: %w", i, err)
			}
			co.replicas[i] = append(co.replicas[i], rc)
		}
	}
	if err := co.loadCatalog(); err != nil {
		return nil, err
	}
	return co, nil
}

func trimSlash(s string) string {
	for len(s) > 0 && s[len(s)-1] == '/' {
		s = s[:len(s)-1]
	}
	return s
}

// NumShards returns the cluster's fan-out.
func (co *Coordinator) NumShards() int { return len(co.shards) }

// table looks a cluster table up.
func (co *Coordinator) table(name string) *ctable {
	co.mu.RLock()
	defer co.mu.RUnlock()
	return co.tables[name]
}

// tableNames lists the catalog sorted by name.
func (co *Coordinator) tableNames() []string {
	co.mu.RLock()
	names := make([]string, 0, len(co.tables))
	for n := range co.tables {
		names = append(names, n)
	}
	co.mu.RUnlock()
	sort.Strings(names)
	return names
}

// newCtable compiles a spec into a catalog entry (schema validation,
// base-domain compilation, partitioner construction).
func (co *Coordinator) newCtable(spec serve.TableSpec) (*ctable, error) {
	schema, err := serve.NewSchema(spec.TOColumns, spec.Orders)
	if err != nil {
		return nil, err
	}
	domains, err := schema.BaseDomains()
	if err != nil {
		return nil, err
	}
	part, err := newPartitioner(spec.Partition, schema, spec.Rows, len(co.shards))
	if err != nil {
		return nil, err
	}
	return &ctable{name: spec.Name, schema: schema, domains: domains, part: part}, nil
}

// CreateTable partitions the spec's rows over the shards, creates the
// per-shard tables (same name, same schema, that shard's slice) and
// registers the cluster table. On any shard failure the already
// created shard tables are dropped best-effort and the create fails.
func (co *Coordinator) CreateTable(ctx context.Context, spec serve.TableSpec) (serve.TableInfo, error) {
	if spec.Name == "" {
		return serve.TableInfo{}, fmt.Errorf("cluster: table name is required")
	}
	co.mu.RLock()
	_, dup := co.tables[spec.Name]
	co.mu.RUnlock()
	if dup {
		return serve.TableInfo{}, serve.ErrTableExists
	}
	ct, err := co.newCtable(spec)
	if err != nil {
		return serve.TableInfo{}, err
	}
	if !ct.part.byHash && co.catalog == nil {
		// Range bounds live only in the coordinator's catalog; without a
		// durable one a restart could not recover them and would silently
		// re-adopt the table as hash-routed. Refuse up front.
		return serve.TableInfo{}, fmt.Errorf(
			"cluster: range-partitioned tables need a durable coordinator catalog (start the coordinator with -data-dir)")
	}
	parts := make([][]serve.RowSpec, len(co.shards))
	for _, r := range spec.Rows {
		si := ct.part.route(r)
		parts[si] = append(parts[si], r)
	}
	infos := make([]serve.TableInfo, len(co.shards))
	errs := co.scatter(func(i int) error {
		shardSpec := serve.TableSpec{
			Name:          spec.Name,
			TOColumns:     spec.TOColumns,
			Orders:        spec.Orders,
			Rows:          parts[i],
			CacheCapacity: spec.CacheCapacity,
		}
		return co.shards[i].do(ctx, http.MethodPost, "/tables", shardSpec, &infos[i])
	})
	if err := firstError(errs); err != nil {
		// Roll back on *every* shard, not only the ones whose create
		// reported success: a timed-out or torn response may have
		// committed server-side, and an orphaned shard table would block
		// all future creates while being unreachable through the
		// coordinator (it is not in the catalog). 404s are fine.
		co.scatter(func(i int) error {
			return co.shards[i].do(context.Background(), http.MethodDelete,
				co.shards[i].tablePath(spec.Name, ""), nil, nil)
		})
		return serve.TableInfo{}, err
	}
	co.mu.Lock()
	if _, dup := co.tables[spec.Name]; dup {
		co.mu.Unlock()
		return serve.TableInfo{}, serve.ErrTableExists
	}
	co.tables[spec.Name] = ct
	co.mu.Unlock()
	if err := co.persistCatalog(); err != nil {
		// An unpersisted placement would resurface as a hash table after
		// a restart — roll the create back rather than let that linger.
		co.mu.Lock()
		delete(co.tables, spec.Name)
		co.mu.Unlock()
		co.scatter(func(i int) error {
			return co.shards[i].do(context.Background(), http.MethodDelete,
				co.shards[i].tablePath(spec.Name, ""), nil, nil)
		})
		return serve.TableInfo{}, err
	}
	return co.aggregateInfo(ct, infos), nil
}

// DropTable drops the table from every shard and the catalog. Shards
// answering 404 count as dropped (a half-completed earlier drop).
func (co *Coordinator) DropTable(ctx context.Context, name string) (bool, error) {
	ct := co.table(name)
	if ct == nil {
		return false, nil
	}
	errs := co.scatter(func(i int) error {
		err := co.shards[i].do(ctx, http.MethodDelete, co.shards[i].tablePath(name, ""), nil, nil)
		var se *shardError
		if asShardError(err, &se) && se.status == http.StatusNotFound {
			return nil
		}
		return err
	})
	if err := firstError(errs); err != nil {
		return false, err
	}
	co.mu.Lock()
	delete(co.tables, name)
	delete(co.saved, name)
	co.mu.Unlock()
	// A persist failure here is benign-stale: the catalog still lists a
	// table no shard has, and Adopt only restores specs for tables that
	// exist on every shard. The next successful persist cleans it up.
	_ = co.persistCatalog()
	return true, nil
}

// Adopt rebuilds the in-memory catalog from the shards after a
// coordinator restart: every table present on *all* shards is adopted.
// A table recorded in the durable catalog comes back with its
// persisted partition spec — range bounds and split column intact; a
// table absent from it gets the uniform hash router, which is safe
// because range-partitioned creates require a durable catalog (they
// are refused without one), so every un-cataloged table was
// hash-routed to begin with. The probes fail over to followers, so a
// dead shard primary does not block adoption of the tables its
// follower still serves. Returns the adopted table names.
func (co *Coordinator) Adopt(ctx context.Context) ([]string, error) {
	var first []serve.TableInfo
	if err := co.readShard(ctx, 0, http.MethodGet, "/tables", 0, nil, &first); err != nil {
		return nil, err
	}
	var adopted []string
	for _, info := range first {
		onAll := true
		for _, sc := range co.shards[1:] {
			var probe serve.TableInfo
			if err := co.readShard(ctx, sc.index, http.MethodGet, sc.tablePath(info.Name, ""), 0, nil, &probe); err != nil {
				onAll = false
				break
			}
		}
		if !onAll {
			continue
		}
		spec := serve.TableSpec{
			Name:      info.Name,
			TOColumns: info.TOColumns,
			Orders:    info.Orders,
		}
		co.mu.RLock()
		if saved, ok := co.saved[info.Name]; ok {
			spec.Partition = &saved
		}
		co.mu.RUnlock()
		ct, err := co.newCtable(spec)
		if err != nil {
			return adopted, fmt.Errorf("adopt %q: %w", info.Name, err)
		}
		co.mu.Lock()
		if _, dup := co.tables[info.Name]; !dup {
			co.tables[info.Name] = ct
			adopted = append(adopted, info.Name)
		}
		co.mu.Unlock()
	}
	return adopted, nil
}

// Info aggregates the per-shard table infos: summed rows/groups/
// traffic, the version vector, and its sum as the cluster version.
func (co *Coordinator) Info(ctx context.Context, ct *ctable) (serve.TableInfo, error) {
	infos := make([]serve.TableInfo, len(co.shards))
	errs := co.scatter(func(i int) error {
		return co.readShard(ctx, i, http.MethodGet, co.shards[i].tablePath(ct.name, ""), 0, nil, &infos[i])
	})
	if err := firstError(errs); err != nil {
		return serve.TableInfo{}, err
	}
	return co.aggregateInfo(ct, infos), nil
}

func (co *Coordinator) aggregateInfo(ct *ctable, infos []serve.TableInfo) serve.TableInfo {
	out := serve.TableInfo{
		Name:      ct.name,
		TOColumns: ct.schema.TOColumns(),
		Orders:    ct.schema.Orders(),
		Versions:  make([]int64, len(infos)),
	}
	for i, info := range infos {
		out.Version += info.Version
		out.Versions[i] = info.Version
		out.Rows += info.Rows
		out.Stats.Queries += info.Stats.Queries
		out.Stats.Mutations += info.Stats.Mutations
		out.Stats.CacheHits += info.Stats.CacheHits
		out.Stats.CacheMisses += info.Stats.CacheMisses
		out.Stats.PlanCache.Add(info.Stats.PlanCache)
	}
	return out
}

// Batch routes a mutation: adds are placed by the table's partitioner,
// removals must be sharded (row indexes are shard-scoped — the
// coordinator's query responses carry each row's shard for exactly
// this). Every shard receives a batch (possibly empty, a no-op that
// just reports its current version) so the response always carries the
// full version vector.
func (co *Coordinator) Batch(ctx context.Context, ct *ctable, req serve.BatchRequest) (serve.BatchResponse, error) {
	if len(req.Remove) > 0 {
		return serve.BatchResponse{}, fmt.Errorf(
			"cluster: row indexes are shard-scoped; use removeSharded ([{shard,row}…], from a coordinator query response)")
	}
	adds := make([][]serve.RowSpec, len(co.shards))
	for _, r := range req.Add {
		si := ct.part.route(r)
		adds[si] = append(adds[si], r)
	}
	removes := make([][]int, len(co.shards))
	for _, ref := range req.RemoveSharded {
		if ref.Shard < 0 || ref.Shard >= len(co.shards) {
			return serve.BatchResponse{}, fmt.Errorf("cluster: shard %d out of range [0, %d)", ref.Shard, len(co.shards))
		}
		removes[ref.Shard] = append(removes[ref.Shard], ref.Row)
	}
	resps := make([]serve.BatchResponse, len(co.shards))
	errs := co.scatter(func(i int) error {
		sreq := serve.BatchRequest{Add: adds[i], Remove: removes[i]}
		return co.shards[i].do(ctx, http.MethodPost, co.shards[i].tablePath(ct.name, "/rows:batch"), sreq, &resps[i])
	})
	if err := firstError(errs); err != nil {
		return serve.BatchResponse{}, err
	}
	out := serve.BatchResponse{Table: ct.name, Versions: make([]int64, len(resps))}
	for i, r := range resps {
		out.Version += r.Version
		out.Versions[i] = r.Version
		out.Rows += r.Rows
		out.Added += r.Added
		out.Removed += r.Removed
	}
	return out, nil
}

// shardStats fetches every shard's /stats body for the table and the
// ETag each came with.
func (co *Coordinator) shardStats(ctx context.Context, ct *ctable) ([]serve.TableStatsInfo, []string, error) {
	stats := make([]serve.TableStatsInfo, len(co.shards))
	tags := make([]string, len(co.shards))
	errs := co.scatter(func(i int) error {
		t := tagged{out: &stats[i]}
		err := co.readShard(ctx, i, http.MethodGet, co.shards[i].tablePath(ct.name, "/stats"), 0, nil, &t)
		tags[i] = t.etag
		return err
	})
	if err := firstError(errs); err != nil {
		return nil, nil, err
	}
	return stats, tags, nil
}

// scatter runs fn(i) for every shard concurrently and returns the
// per-shard errors.
func (co *Coordinator) scatter(fn func(i int) error) []error {
	errs := make([]error, len(co.shards))
	var wg sync.WaitGroup
	for i := range co.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	return errs
}

// scatterSome is scatter over an index subset.
func (co *Coordinator) scatterSome(idx []int, fn func(i int) error) map[int]error {
	errs := make([]error, len(idx))
	var wg sync.WaitGroup
	for k, i := range idx {
		wg.Add(1)
		go func(k, i int) {
			defer wg.Done()
			errs[k] = fn(i)
		}(k, i)
	}
	wg.Wait()
	out := make(map[int]error, len(idx))
	for k, i := range idx {
		out[i] = errs[k]
	}
	return out
}

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func asShardError(err error, out **shardError) bool {
	return errors.As(err, out)
}
