// Command tssserve is the HTTP/JSON skyline query server: a catalog of
// named tables served to concurrent clients with copy-on-write
// snapshot isolation. Every query — full, subspace, constrained,
// top-k, restricted, under the table's own orders or under per-request
// preference DAGs — is one planned request through the algorithm
// registry, with -cache past results per snapshot memoised by DAG;
// batched mutations derive the next snapshot incrementally and
// atomically swap it in without blocking readers.
//
//	tssserve -addr :8080 -table flights=./work -cache 128
//	tssserve -addr :8080 -data-dir ./tss-data -checkpoint-every 4194304
//	tssserve -addr :8081 -shard-of 0/2                       # shard node
//	tssserve -addr :8082 -follower-of http://h1:8081         # read-only mirror
//	tssserve -addr :8080 -data-dir ./co -coordinator http://h1:8081,http://h2:8081 \
//	         -replicas http://h1f:8082,http://h2f:8082
//
// With -data-dir the catalog is durable: every batch is appended to a
// CRC-checked write-ahead log *before* its snapshot is published, logs
// are checkpointed into columnar snapshots once they pass
// -checkpoint-every bytes, and on startup every persisted table is
// recovered to its last acknowledged version (snapshot + WAL replay).
// -no-fsync trades power-failure durability for append latency.
//
// With -coordinator the node fronts a cluster: POST /tables partitions
// rows over the listed shard nodes (hash by default, range via the
// spec's "partition" field), queries are planned once against merged
// per-shard statistics, fanned out, and merged with a t-dominance
// elimination pass (dominated shards pruned via their /stats corners),
// and batches are routed by the partitioner with a per-shard version
// vector in every response. -shard-of i/n declares a shard's identity,
// surfaced in /statsz and checked against the coordinator's routing
// assertion (mismatch = 409). One process may carry both flags — the
// coordinator's scatter traffic bypasses its own cluster layer. A
// coordinator with -data-dir persists its cluster catalog (partition
// kind, range bounds, shard count), so a restart restores real
// placement; without it, range-partitioned creates are refused.
//
// With -follower-of the node is a read-only mirror of one primary:
// every table bootstrap-seeds from the primary's columnar snapshot,
// then tails its committed WAL frames and applies each record through
// the normal batch path. HTTP mutations answer 403; reads can demand
// freshness with ?minVersion=N (412 until the mirror reaches N). Add
// -data-dir to make the mirror itself durable. A coordinator given
// -replicas (follower URLs per shard, comma-separated by shard index,
// '|' between one shard's followers) fails read legs over to a
// follower when the primary is unreachable — pinned to the version the
// scatter already observed — while mutations never fail over, so a
// dead primary degrades its shard to read-only instead of serving
// wrong answers. Replication is asynchronous: frames the primary
// acknowledged but had not yet shipped are unavailable until its disk
// returns.
//
// Preload tables from tssgen output directories with repeated -table
// name=dir flags, or create them over HTTP (POST /tables). Endpoints:
//
//	GET    /healthz                     liveness
//	GET    /statsz                      catalog + traffic statistics
//	GET    /clusterz                    cluster topology (coordinator only)
//	GET    /tables                      list tables
//	POST   /tables                      create a table
//	GET    /tables/{name}               table info
//	DELETE /tables/{name}               drop a table
//	GET    /tables/{name}/stats         planner statistics + learned state
//	POST   /tables/{name}/rows:batch    batched mutation
//	POST   /tables/{name}/query         skyline query (orders, ideal, subspace, where, topK, rank, fweights, algo, parallel; ?stream=1, ?limit=)
//	POST   /tables/{name}/domcount      dominance counts for candidate rows
//	GET    /tables/{name}/replica/snapshot  columnar snapshot (follower bootstrap)
//	GET    /tables/{name}/replica/log       committed WAL frames past ?after=N
//
// tssquery -serve <url> is the matching thin client and works
// unchanged against a coordinator. SIGINT/SIGTERM drain in-flight
// requests before exit (graceful shutdown).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/replica"
	"repro/internal/serve"
	"repro/internal/store"
)

// parseReplicas decodes the -replicas value: one comma-separated entry
// per shard index, '|' between one shard's followers, blank entries for
// shards without followers ("f0,,f2|f2b").
func parseReplicas(v string) [][]string {
	if strings.TrimSpace(v) == "" {
		return nil
	}
	var out [][]string
	for _, entry := range strings.Split(v, ",") {
		var followers []string
		for _, u := range strings.Split(entry, "|") {
			if u = strings.TrimSpace(u); u != "" {
				followers = append(followers, u)
			}
		}
		out = append(out, followers)
	}
	return out
}

// tableFlags collects repeated -table name=dir values.
type tableFlags []string

func (t *tableFlags) String() string { return strings.Join(*t, ",") }
func (t *tableFlags) Set(v string) error {
	*t = append(*t, v)
	return nil
}

func main() {
	var tables tableFlags
	addr := flag.String("addr", ":8080", "listen address")
	cache := flag.Int("cache", serve.DefaultCacheCapacity, "per-table cache of per-request-orders results: entries each snapshot's memo keeps")
	drain := flag.Duration("drain", 5*time.Second, "graceful-shutdown drain timeout")
	requestTimeout := flag.Duration("request-timeout", 0,
		"per-request time budget: queries are canceled cooperatively mid-run via the request context (0 = unlimited)")
	shardOf := flag.String("shard-of", "",
		"this node's cluster identity as index/count (e.g. 0/2): shown in /statsz and enforced against the coordinator's routing assertion")
	coordinator := flag.String("coordinator", "",
		"comma-separated shard base URLs: serve as the cluster coordinator over them (scatter/gather; may combine with -shard-of on one process)")
	replicas := flag.String("replicas", "",
		"per-shard follower base URLs for the coordinator, comma-separated by shard index with '|' between one shard's followers (e.g. http://f0a|http://f0b,http://f1): reads fail over to them when the primary is unreachable; mutations never do")
	followerOf := flag.String("follower-of", "",
		"primary base URL: run as a read-only replication follower mirroring every table of the primary (combine with -data-dir for a durable mirror)")
	followerInterval := flag.Duration("follower-interval", replica.DefaultInterval,
		"replication poll cadence in follower mode")
	dataDir := flag.String("data-dir", "", "durable storage directory (empty = in-memory only)")
	checkpointEvery := flag.Int64("checkpoint-every", serve.DefaultCheckpointEvery,
		"WAL bytes after which a batch checkpoints its table into a fresh snapshot")
	noFsync := flag.Bool("no-fsync", false,
		"skip fsync on WAL appends and snapshot writes (faster; unsafe across power failures)")
	pprofAddr := flag.String("pprof", "",
		"expose net/http/pprof on this separate listen address (e.g. localhost:6060; empty = off) — kept off the serving listener so profiling is never part of the public API surface")
	flag.Var(&tables, "table", "preload a table from a tssgen output dir, as name=dir (repeatable)")
	flag.Parse()

	if *followerOf != "" && *coordinator != "" {
		fatalf("-follower-of and -coordinator are mutually exclusive (a follower mirrors one primary)")
	}
	if *followerOf != "" && len(tables) > 0 {
		fatalf("-table preloads cannot combine with -follower-of (the primary owns the mirror's tables)")
	}
	if *replicas != "" && *coordinator == "" {
		fatalf("-replicas only applies to a coordinator (-coordinator)")
	}
	cfg := serve.Config{
		CacheCapacity:   *cache,
		CheckpointEvery: *checkpointEvery,
		ReadOnly:        *followerOf != "",
	}
	if *shardOf != "" {
		var idx, count int
		if n, err := fmt.Sscanf(*shardOf, "%d/%d", &idx, &count); n != 2 || err != nil ||
			idx < 0 || count < 1 || idx >= count {
			fatalf("bad -shard-of %q (want index/count, e.g. 0/2)", *shardOf)
		}
		cfg.Shard = &serve.ShardIdentity{Index: idx, Count: count}
	}
	if *dataDir != "" {
		st, err := store.OpenDisk(*dataDir, store.DiskOptions{NoFsync: *noFsync})
		if err != nil {
			fatalf("open data dir %q: %v", *dataDir, err)
		}
		defer st.Close()
		cfg.Store = st
	}
	s := serve.NewWithConfig(cfg)
	recovered, err := s.Recover()
	if err != nil {
		fatalf("recover: %v", err)
	}
	for _, info := range recovered {
		fmt.Printf("recovered table %q: version %d, %d rows\n", info.Name, info.Version, info.Rows)
	}
	for _, spec := range tables {
		name, dir, ok := strings.Cut(spec, "=")
		if !ok {
			fatalf("bad -table %q (want name=dir)", spec)
		}
		info, err := s.LoadCSVDir(name, dir)
		if err != nil {
			// A recovered table of the same name wins over the preload:
			// its durable state is strictly newer than the seed files.
			if errors.Is(err, serve.ErrTableExists) {
				fmt.Printf("table %q already recovered from the data dir; skipping preload\n", name)
				continue
			}
			fatalf("load table %q: %v", name, err)
		}
		fmt.Printf("loaded table %q: %d rows\n", info.Name, info.Rows)
	}

	handler := s.Handler()
	var co *cluster.Coordinator
	if *coordinator != "" {
		co, err = cluster.New(cluster.Config{
			Shards:   strings.Split(*coordinator, ","),
			Replicas: parseReplicas(*replicas),
			// The serve store doubles as the coordinator's durable catalog
			// (distinct meta key), so -data-dir restores partition specs —
			// range bounds included — across restarts.
			Catalog: cfg.Store,
		})
		if err != nil {
			fatalf("coordinator: %v", err)
		}
		handler = co.Handler(handler)
		fmt.Printf("coordinating %d shards\n", co.NumShards())
	}
	var follower *replica.Follower
	if *followerOf != "" {
		follower, err = replica.New(replica.Config{
			Primary:  *followerOf,
			Server:   s,
			Interval: *followerInterval,
			Logf:     func(format string, args ...any) { fmt.Printf(format+"\n", args...) },
		})
		if err != nil {
			fatalf("follower: %v", err)
		}
	}
	if *requestTimeout > 0 {
		handler = withRequestTimeout(handler, *requestTimeout)
	}
	// Slow-client hardening: a peer that trickles its headers or parks
	// an idle keep-alive connection must not pin a goroutine (or a file
	// descriptor) forever. Request *bodies* stay untimed — batch uploads
	// may legitimately be large; -request-timeout bounds the work.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Printf("tssserve listening on %s\n", *addr)
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, pprofMux()); err != nil &&
				!errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "pprof listener: %v\n", err)
			}
		}()
		fmt.Printf("pprof listening on %s\n", *pprofAddr)
	}
	followCtx, stopFollow := context.WithCancel(context.Background())
	defer stopFollow()
	if follower != nil {
		go follower.Run(followCtx)
		fmt.Printf("following %s (read-only mirror, poll %s)\n", *followerOf, *followerInterval)
	}
	if co != nil {
		// Rebuild the cluster catalog from the shards: tables created
		// before a coordinator restart resume serving. Tables recorded in
		// the durable catalog (-data-dir) come back with their persisted
		// partition spec — range bounds intact; the rest were hash-routed
		// to begin with. The probes fail over to -replicas followers, so a
		// dead primary does not block adoption. This must run *after* the
		// listener is up — a dual-role node's shard list includes its own
		// address — and retries while peers are still starting. Until
		// adoption completes, requests for not-yet-adopted tables fall
		// through to the local catalog.
		go func() {
			for attempt := 0; attempt < 20; attempt++ {
				adoptCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
				adopted, err := co.Adopt(adoptCtx)
				cancel()
				if err == nil {
					for _, name := range adopted {
						fmt.Printf("adopted cluster table %q\n", name)
					}
					return
				}
				time.Sleep(500 * time.Millisecond)
			}
			fmt.Println("coordinator: shard catalog not adopted (shards unreachable); serving new tables only")
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatalf("serve: %v", err)
		}
	case <-ctx.Done():
		stop()
		fmt.Println("shutting down...")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			fatalf("shutdown: %v", err)
		}
	}
}

// withRequestTimeout bounds each request's context. Queries check it
// cooperatively — the executor between pipeline stages and inside its
// scan loops, the cursor inside its index traversal — and answer 503 on
// expiry, releasing the worker.
func withRequestTimeout(h http.Handler, d time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		h.ServeHTTP(w, r.WithContext(ctx))
	})
}

// pprofMux builds the profiling handler for the -pprof side listener.
// An explicit mux (rather than net/http/pprof's DefaultServeMux
// registration) keeps the profiling routes bound to the address the
// operator chose and nothing else.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
