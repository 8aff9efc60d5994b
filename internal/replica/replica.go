// Package replica mirrors a primary tssserve node into a local serving
// catalog: each table bootstrap-seeds from the primary's columnar
// snapshot, then tails its replication log — committed WAL frames in
// the on-disk framing — and applies every record through the serving
// layer's normal batch path. The mirror is therefore itself durable
// when its server has a store attached, and serves reads (at explicit
// snapshot versions, via ?minVersion pinning) the moment each record
// lands.
//
// Replication is asynchronous: a batch is acknowledged by the primary
// once it is in the *primary's* WAL, before any follower has seen it.
// On primary death the acknowledged-but-unshipped suffix is unavailable
// until the primary's disk comes back — the follower serves the newest
// shipped version, which the coordinator's version pinning keeps
// consistent with what each query already observed. Correctness of
// skyline results never depends on replica choice (the union-of-
// partitions property: any superset of rows at a consistent version
// merges to the same skyline); only freshness and availability do.
package replica

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/store"
)

// DefaultInterval is the log-poll cadence of Run when the config does
// not override it.
const DefaultInterval = 500 * time.Millisecond

// Config wires a Follower.
type Config struct {
	// Primary is the primary node's base URL.
	Primary string
	// Server is the local catalog the mirror applies into — normally a
	// read-only serve.Server, so replication is its only writer.
	Server *serve.Server
	// Client overrides the HTTP client (nil = a 30s-timeout default).
	Client *http.Client
	// Interval is Run's poll cadence (0 = DefaultInterval).
	Interval time.Duration
	// Logf, when non-nil, receives progress and error lines.
	Logf func(format string, args ...any)
}

// Follower is one replication loop against one primary.
type Follower struct {
	primary  string
	srv      *serve.Server
	client   *http.Client
	interval time.Duration
	logf     func(format string, args ...any)

	mu      sync.Mutex
	lag     map[string]int64 // per table: primary version − applied version
	managed map[string]bool  // tables this loop created locally
}

// New validates the config and returns a Follower (not yet running).
func New(cfg Config) (*Follower, error) {
	if cfg.Primary == "" {
		return nil, fmt.Errorf("replica: primary URL is required")
	}
	if cfg.Server == nil {
		return nil, fmt.Errorf("replica: local server is required")
	}
	f := &Follower{
		primary:  strings.TrimRight(cfg.Primary, "/"),
		srv:      cfg.Server,
		client:   cfg.Client,
		interval: cfg.Interval,
		logf:     cfg.Logf,
		lag:      map[string]int64{},
		managed:  map[string]bool{},
	}
	if f.client == nil {
		f.client = &http.Client{Timeout: 30 * time.Second}
	}
	if f.interval <= 0 {
		f.interval = DefaultInterval
	}
	if f.logf == nil {
		f.logf = func(string, ...any) {}
	}
	return f, nil
}

// Run polls Sync until the context is canceled. Sync errors (primary
// down, mid-bootstrap races) are logged and retried on the next tick —
// a follower outliving its primary is the point.
func (f *Follower) Run(ctx context.Context) {
	t := time.NewTicker(f.interval)
	defer t.Stop()
	for {
		if err := f.Sync(ctx); err != nil && ctx.Err() == nil {
			f.logf("replica: sync against %s: %v", f.primary, err)
		}
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// Sync runs one full replication round: list the primary's tables,
// bootstrap the missing ones, tail every lagging log, and drop local
// mirrors of tables the primary no longer has. It is the unit tests'
// deterministic hook — after a Sync that returns nil, the mirror is
// exactly the primary state the round observed.
func (f *Follower) Sync(ctx context.Context) error {
	var tables []serve.TableInfo
	if err := f.getJSON(ctx, "/tables", &tables); err != nil {
		return err
	}
	seen := make(map[string]bool, len(tables))
	var firstErr error
	for _, t := range tables {
		seen[t.Name] = true
		if err := f.syncTable(ctx, t.Name, t.Version); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("table %q: %w", t.Name, err)
		}
	}
	// A table the primary dropped disappears from the mirror too — but
	// only tables this loop created, never local state someone else owns.
	f.mu.Lock()
	var gone []string
	for name := range f.managed {
		if !seen[name] {
			gone = append(gone, name)
		}
	}
	f.mu.Unlock()
	for _, name := range gone {
		// A failed drop keeps the table managed, so the next round
		// retries it.
		if _, err := f.srv.DropTable(name); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("table %q: %w", name, err)
			}
			continue
		}
		f.mu.Lock()
		delete(f.managed, name)
		delete(f.lag, name)
		f.mu.Unlock()
		f.logf("replica: dropped %q (gone from primary)", name)
	}
	return firstErr
}

// syncTable brings one table as close to primaryVersion as this round
// can: bootstrap if absent, tail the log if behind, re-seed from the
// snapshot when the tail was compacted away (410) or out of sync.
func (f *Follower) syncTable(ctx context.Context, name string, primaryVersion int64) error {
	local, ok := f.srv.Table(name)
	localV := local.Version
	if !ok {
		v, err := f.bootstrap(ctx, name)
		if err != nil {
			return err
		}
		localV = v
	}
	for attempt := 0; localV < primaryVersion && attempt < 2; attempt++ {
		gone, err := f.tail(ctx, name, localV)
		switch {
		case gone || errors.Is(err, serve.ErrReplicaGap):
			// The needed suffix is not tailable (checkpoint compacted it,
			// or local state diverged): re-seed from the serving snapshot.
			v, berr := f.bootstrap(ctx, name)
			if berr != nil {
				return berr
			}
			localV = v
		case err != nil:
			return err
		default:
			cur, _ := f.srv.Table(name)
			localV = cur.Version
		}
	}
	f.mu.Lock()
	f.managed[name] = true
	f.lag[name] = primaryVersion - localV
	f.mu.Unlock()
	return nil
}

// bootstrap seeds (or replaces) the local table from the primary's
// serving snapshot and returns the seeded version.
func (f *Follower) bootstrap(ctx context.Context, name string) (int64, error) {
	b, err := f.getRaw(ctx, f.tablePath(name)+"/replica/snapshot")
	if err != nil {
		return 0, err
	}
	snap, err := store.DecodeSnapshot(b)
	if err != nil {
		return 0, fmt.Errorf("bootstrap snapshot: %w", err)
	}
	info, err := f.srv.ImportSnapshot(name, snap)
	if err != nil {
		return 0, err
	}
	f.logf("replica: seeded %q at version %d (%d rows)", name, info.Version, info.Rows)
	return info.Version, nil
}

// tail fetches and applies the log records past the local version.
// gone=true reports 410 — the suffix was compacted away.
func (f *Follower) tail(ctx context.Context, name string, after int64) (gone bool, err error) {
	b, status, err := f.get(ctx, fmt.Sprintf("%s/replica/log?after=%d", f.tablePath(name), after))
	if status == http.StatusGone {
		return true, nil
	}
	if err != nil {
		return false, err
	}
	return false, store.ReplayWAL(b, func(m *store.Mutation) error {
		return f.srv.ApplyReplicated(name, m)
	})
}

// Lag returns the per-table version delta (primary − applied) observed
// by the most recent rounds.
func (f *Follower) Lag() map[string]int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]int64, len(f.lag))
	for k, v := range f.lag {
		out[k] = v
	}
	return out
}

// Tables lists the mirrored table names, sorted.
func (f *Follower) Tables() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	names := make([]string, 0, len(f.managed))
	for name := range f.managed {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func (f *Follower) tablePath(name string) string {
	return "/tables/" + url.PathEscape(name)
}

// get issues one GET against the primary, returning body and status.
// Non-2xx statuses other than the ones the caller inspects surface as
// errors carrying the primary's message.
func (f *Follower) get(ctx context.Context, path string) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.primary+path, nil)
	if err != nil {
		return nil, 0, err
	}
	// A dual-role primary (coordinator + shard in one process) must
	// answer from its local catalog, not cluster-route the request.
	req.Header.Set(serve.ShardDirectHeader, "1")
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, 0, fmt.Errorf("primary %s: %w", f.primary, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, fmt.Errorf("primary %s: %w", f.primary, err)
	}
	if resp.StatusCode/100 != 2 {
		msg := strings.TrimSpace(string(b))
		if len(msg) > 512 {
			msg = msg[:512]
		}
		return nil, resp.StatusCode, fmt.Errorf("primary %s: %s (HTTP %d)", f.primary, msg, resp.StatusCode)
	}
	return b, resp.StatusCode, nil
}

func (f *Follower) getRaw(ctx context.Context, path string) ([]byte, error) {
	b, _, err := f.get(ctx, path)
	return b, err
}

func (f *Follower) getJSON(ctx context.Context, path string, out any) error {
	b, _, err := f.get(ctx, path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, out)
}
