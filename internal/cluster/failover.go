package cluster

import (
	"context"
	"io"
	"strconv"
	"strings"
)

// Read failover. Every scatter *read* (table info, stats, queries,
// skylines, domcounts, streamed legs) goes to the shard's primary
// first and falls back to its followers when the primary is
// unreachable — a transport error or client-side timeout, never an
// HTTP-level answer: a primary that responds, even with an error, is
// alive and authoritative. Failover is correctness-neutral by the
// union-of-partitions property (any superset of a shard's rows merges
// to the same skyline); what a follower may lack is freshness, which
// the minVersion pin turns from a silent anomaly into an explicit 412
// the coordinator skips past. Mutations (creates, drops, batches)
// never fail over: followers reject them, the primary's WAL is the
// only write path.

// withMinVersion appends the read-at-version pin to a request path.
// pin 0 means unpinned (any version is acceptable).
func withMinVersion(path string, pin int64) string {
	if pin <= 0 {
		return path
	}
	sep := "?"
	if strings.Contains(path, "?") {
		sep = "&"
	}
	return path + sep + "minVersion=" + strconv.FormatInt(pin, 10)
}

// shouldFailover classifies a primary read error: only transport
// failures with the caller still interested divert to a follower. A
// *shardError carries an HTTP status — the primary answered, so it is
// up and its answer stands. A canceled/expired caller context means
// the "failure" is the coordinator giving up, and retrying a follower
// would just fail over every leg of an abandoned scatter.
func (co *Coordinator) shouldFailover(ctx context.Context, err error) bool {
	if err == nil || ctx.Err() != nil {
		return false
	}
	var se *shardError
	return !asShardError(err, &se)
}

// readShard runs one buffered read against shard i, failing over to
// its followers in order. pin is the version the read must observe
// (followers below it answer 412 and the next one is tried); 0 accepts
// any version. When every follower also fails, the primary's error —
// the root cause — is returned.
func (co *Coordinator) readShard(ctx context.Context, i int, method, path string, pin int64, body, out any) error {
	primaryErr := co.shards[i].do(ctx, method, path, body, out)
	if !co.shouldFailover(ctx, primaryErr) || len(co.replicas[i]) == 0 {
		return primaryErr
	}
	for _, rc := range co.replicas[i] {
		if rc.do(ctx, method, withMinVersion(path, pin), body, out) == nil {
			co.failovers.Add(1)
			return nil
		}
		if ctx.Err() != nil {
			break
		}
	}
	return primaryErr
}

// openShardStream is readShard for streamed legs (always a POST): open
// against the primary, fail over to followers on transport errors.
func (co *Coordinator) openShardStream(ctx context.Context, i int, path string, pin int64, body any) (io.ReadCloser, error) {
	rd, primaryErr := co.shards[i].stream(ctx, path, body)
	if primaryErr == nil || !co.shouldFailover(ctx, primaryErr) || len(co.replicas[i]) == 0 {
		return rd, primaryErr
	}
	for _, rc := range co.replicas[i] {
		if rd, err := rc.stream(ctx, withMinVersion(path, pin), body); err == nil {
			co.failovers.Add(1)
			return rd, nil
		}
		if ctx.Err() != nil {
			break
		}
	}
	return nil, primaryErr
}
