package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/serve"
)

// Handler mounts the coordinator over a fallback handler (the node's
// own single-node serve API). External clients hit the same paths as
// against a single node — the coordinator answers for its cluster
// tables and defers everything else — so tssquery -serve works against
// either transparently. Requests carrying ShardDirectHeader always go
// to the fallback: that is coordinator→shard traffic, and on a
// dual-role node it must reach the local catalog, not recurse into the
// cluster layer.
//
//	GET  /clusterz                       topology + cluster catalog
//	POST /tables                         create a *cluster* table (partitioned over the shards)
//	GET  /tables                         list cluster tables
//	*    /tables/{name}...               cluster table → scatter/gather, else fallback
func (co *Coordinator) Handler(fallback http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(ShardDirectHeader) != "" {
			fallback.ServeHTTP(w, r)
			return
		}
		path := strings.TrimSuffix(r.URL.Path, "/")
		switch {
		case path == "/clusterz" && r.Method == http.MethodGet:
			co.handleClusterz(w, r)
			return
		case path == "/tables" && r.Method == http.MethodPost:
			co.handleCreate(w, r)
			return
		case path == "/tables" && r.Method == http.MethodGet:
			co.handleList(w, r)
			return
		case strings.HasPrefix(path, "/tables/"):
			rawName, rest, _ := strings.Cut(strings.TrimPrefix(path, "/tables/"), "/")
			name, err := url.PathUnescape(rawName)
			if err != nil {
				serve.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad table name: %w", err))
				return
			}
			if ct := co.table(name); ct != nil {
				co.serveTable(w, r, ct, rest)
				return
			}
		}
		fallback.ServeHTTP(w, r)
	})
}

// serveTable routes one cluster table's sub-path.
func (co *Coordinator) serveTable(w http.ResponseWriter, r *http.Request, ct *ctable, rest string) {
	ctx := r.Context()
	switch {
	case rest == "" && r.Method == http.MethodGet:
		info, err := co.Info(ctx, ct)
		if err != nil {
			serve.WriteError(w, statusForCluster(err), err)
			return
		}
		serve.WriteJSON(w, http.StatusOK, info)
	case rest == "" && r.Method == http.MethodDelete:
		ok, err := co.DropTable(ctx, ct.name)
		if err != nil {
			serve.WriteError(w, statusForCluster(err), err)
			return
		}
		if !ok {
			serve.WriteError(w, http.StatusNotFound, fmt.Errorf("no table %q", ct.name))
			return
		}
		serve.WriteJSON(w, http.StatusOK, map[string]string{"dropped": ct.name})
	case rest == "stats" && r.Method == http.MethodGet:
		co.handleStats(w, r, ct)
	case rest == "rows:batch" && r.Method == http.MethodPost:
		var req serve.BatchRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, serve.MaxDomCountBody)).Decode(&req); err != nil {
			serve.WriteError(w, serve.BodyErrorStatus(err), fmt.Errorf("bad batch: %w", err))
			return
		}
		resp, err := co.Batch(ctx, ct, req)
		if err != nil {
			serve.WriteError(w, statusForCluster(err), err)
			return
		}
		serve.WriteJSON(w, http.StatusOK, resp)
	case rest == "query" && r.Method == http.MethodPost:
		co.serveRead(w, r, ct)
	case rest == "domcount" && r.Method == http.MethodPost:
		req, rows, err := ct.schema.ReadDomCount(http.MaxBytesReader(w, r.Body, serve.MaxDomCountBody))
		if err != nil {
			serve.WriteError(w, serve.BodyErrorStatus(err), fmt.Errorf("bad domcount request: %w", err))
			return
		}
		resp, err := co.DomCount(ctx, ct, req, rows)
		if err != nil {
			serve.WriteError(w, statusForCluster(err), err)
			return
		}
		serve.WriteJSON(w, http.StatusOK, resp)
	default:
		serve.WriteError(w, http.StatusNotFound, fmt.Errorf("no cluster route %s %s", r.Method, r.URL.Path))
	}
}

// maxQueryBody bounds a query request body, like the single node's
// limit (a lattice of 500 values with all its edges is ~100 KB).
const maxQueryBody = 4 << 20

// serveRead answers POST /query, the one read route: decode and compile
// the request into its scatter/gather pass, then hand it to the buffered
// or the streamed runner.
func (co *Coordinator) serveRead(w http.ResponseWriter, r *http.Request, ct *ctable) {
	var req serve.QueryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxQueryBody)).Decode(&req); err != nil {
		serve.WriteError(w, serve.BodyErrorStatus(err), fmt.Errorf("bad query: %w", err))
		return
	}
	co.queries.Add(1)
	g, err := co.compile(ct, r.URL.Query(), req)
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if serve.WantsStream(r) {
		co.stream(w, r, g)
		return
	}
	rp, err := g.answer(r.Context(), co)
	if err != nil {
		serve.WriteError(w, statusForCluster(err), err)
		return
	}
	serve.WriteQueryResponse(w, rp.head, len(rp.rows), func(b []byte, i int) []byte {
		return rp.rows[i].appendJSON(b, ct.schema)
	}, &rp.tail)
}

func (co *Coordinator) handleCreate(w http.ResponseWriter, r *http.Request) {
	var spec serve.TableSpec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, serve.MaxCreateBody)).Decode(&spec); err != nil {
		serve.WriteError(w, serve.BodyErrorStatus(err), fmt.Errorf("bad table spec: %w", err))
		return
	}
	info, err := co.CreateTable(r.Context(), spec)
	if err != nil {
		if errors.Is(err, serve.ErrTableExists) {
			serve.WriteError(w, http.StatusConflict, fmt.Errorf("table %q already exists", spec.Name))
			return
		}
		serve.WriteError(w, statusForCluster(err), err)
		return
	}
	serve.WriteJSON(w, http.StatusCreated, info)
}

func (co *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	infos := []any{}
	for _, name := range co.tableNames() {
		ct := co.table(name)
		if ct == nil {
			continue
		}
		info, err := co.Info(r.Context(), ct)
		if err != nil {
			serve.WriteError(w, statusForCluster(err), err)
			return
		}
		infos = append(infos, info)
	}
	serve.WriteJSON(w, http.StatusOK, infos)
}

// handleStats merges the shards' statistics and attaches the
// per-shard bodies.
func (co *Coordinator) handleStats(w http.ResponseWriter, r *http.Request, ct *ctable) {
	stats, _, err := co.shardStats(r.Context(), ct)
	if err != nil {
		serve.WriteError(w, statusForCluster(err), err)
		return
	}
	out := struct {
		Table    string `json:"table"`
		Version  int64  `json:"version"`
		Rows     int    `json:"rows"`
		Stats    any    `json:"stats"`
		PerShard any    `json:"perShard"`
	}{Table: ct.name, PerShard: stats}
	parts := make([]*plan.Stats, len(stats))
	for i, s := range stats {
		parts[i] = s.Stats
		out.Version += s.Version
		out.Rows += s.Rows
	}
	out.Stats = plan.MergeStats(parts...)
	serve.WriteJSON(w, http.StatusOK, out)
}

// ClusterzInfo is the GET /clusterz body.
type ClusterzInfo struct {
	Shards []string `json:"shards"`
	// Replicas[i] are shard i's follower base URLs, in failover order.
	Replicas [][]string     `json:"replicas,omitempty"`
	Tables   []ClusterTable `json:"tables"`
	Queries  int64          `json:"queries"`
	// PrunedShards counts scatter legs skipped by statistics-driven
	// pruning since startup.
	PrunedShards int64 `json:"prunedShards"`
	// Failovers counts read legs a follower answered because the shard
	// primary was unreachable, since startup.
	Failovers int64 `json:"failovers"`
	// MemoHits counts buffered reads answered from a merged answer
	// revalidated against every shard's ETag, with no leg sent;
	// MemoMisses the reads that could have been and scattered instead
	// (noCache reads and streams are neither), since startup.
	MemoHits   int64 `json:"memoHits"`
	MemoMisses int64 `json:"memoMisses"`
	// KernelDomTests / KernelBlockSkips are this process's cumulative
	// dominance-kernel counters (coordinator merge passes included);
	// shard-local work shows up in each shard's own /statsz.
	KernelDomTests   int64 `json:"kernelDomTests"`
	KernelBlockSkips int64 `json:"kernelBlockSkips"`
	// PlanCache sums every table's by-route skyline-memo counters
	// across the reachable primaries (hits/misses per route plus
	// shard-local maintenance work), so cluster-wide maintenance
	// efficacy is one GET away.
	PlanCache serve.PlanCacheStats `json:"planCache"`
}

// ClusterTable is one catalog entry of /clusterz.
type ClusterTable struct {
	Name      string `json:"name"`
	Partition any    `json:"partition"`
	// Versions is the primary version vector, probed live; -1 marks an
	// unreachable primary.
	Versions []int64 `json:"versions,omitempty"`
	// PlanCache sums this table's by-route skyline-memo counters across
	// the reachable primaries (see serve.PlanCacheStats).
	PlanCache serve.PlanCacheStats `json:"planCache"`
	// ReplicaLag[i][j] is primary version − follower j's version for
	// shard i — the replication delta; -1 when either side is
	// unreachable. Omitted when no shard has followers.
	ReplicaLag [][]int64 `json:"replicaLag,omitempty"`
}

func (co *Coordinator) handleClusterz(w http.ResponseWriter, r *http.Request) {
	domTests, blockSkips := core.KernelCounters()
	info := ClusterzInfo{
		Queries:          co.queries.Load(),
		PrunedShards:     co.pruned.Load(),
		Failovers:        co.failovers.Load(),
		MemoHits:         co.memoHits.Load(),
		MemoMisses:       co.memoMisses.Load(),
		Tables:           []ClusterTable{},
		KernelDomTests:   domTests,
		KernelBlockSkips: blockSkips,
	}
	hasReplicas := false
	for i, sc := range co.shards {
		info.Shards = append(info.Shards, sc.base)
		if len(co.replicas[i]) > 0 {
			hasReplicas = true
		}
	}
	if hasReplicas {
		info.Replicas = make([][]string, len(co.shards))
		for i, rcs := range co.replicas {
			for _, rc := range rcs {
				info.Replicas[i] = append(info.Replicas[i], rc.base)
			}
		}
	}
	for _, name := range co.tableNames() {
		ct := co.table(name)
		if ct == nil {
			continue
		}
		entry := ClusterTable{Name: name, Partition: ct.part.spec()}
		var pc serve.PlanCacheStats
		entry.Versions, entry.ReplicaLag, pc = co.probeVersions(r.Context(), name, hasReplicas)
		entry.PlanCache = pc
		info.PlanCache.Add(pc)
		info.Tables = append(info.Tables, entry)
	}
	serve.WriteJSON(w, http.StatusOK, info)
}

// probeVersions asks every primary (and, when followers are
// configured, every follower) for one table's current version —
// best-effort, concurrently, -1 for any node that does not answer. The
// per-follower lag is the primary/follower version delta, the live
// measure of how far behind each mirror is.
func (co *Coordinator) probeVersions(ctx context.Context, name string, withLag bool) ([]int64, [][]int64, serve.PlanCacheStats) {
	versions := make([]int64, len(co.shards))
	caches := make([]serve.PlanCacheStats, len(co.shards))
	var lag [][]int64
	if withLag {
		lag = make([][]int64, len(co.shards))
	}
	probe := func(sc *shardClient) (int64, serve.PlanCacheStats) {
		var info serve.TableInfo
		if err := sc.do(ctx, http.MethodGet, sc.tablePath(name, ""), nil, &info); err != nil {
			return -1, serve.PlanCacheStats{}
		}
		return info.Version, info.Stats.PlanCache
	}
	co.scatter(func(i int) error {
		versions[i], caches[i] = probe(co.shards[i])
		if lag == nil {
			return nil
		}
		for _, rc := range co.replicas[i] {
			rv, _ := probe(rc)
			if versions[i] < 0 || rv < 0 {
				lag[i] = append(lag[i], -1)
				continue
			}
			lag[i] = append(lag[i], versions[i]-rv)
		}
		return nil
	})
	var pc serve.PlanCacheStats
	for _, c := range caches {
		pc.Add(c)
	}
	return versions, lag, pc
}

// statusForCluster maps a coordinator error to its HTTP status: shard
// client errors (4xx) relay as-is, shard 5xx and transport failures
// become 502 (the coordinator itself is fine; a dependency is not),
// context expiry keeps the single-node 499/503 mapping, and everything
// else is a client error.
func statusForCluster(err error) int {
	var se *shardError
	var ue *url.Error
	switch {
	case errors.As(err, &se):
		if se.status/100 == 4 {
			return se.status
		}
		return http.StatusBadGateway
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled):
		return 499
	case errors.As(err, &ue):
		// A transport-level failure (shard unreachable, connection torn):
		// the shard is the broken dependency, not the request.
		return http.StatusBadGateway
	}
	return http.StatusBadRequest
}
