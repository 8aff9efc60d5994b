package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/poset"
)

// countdownCtx is a deterministic cancellation source: Err returns the
// configured error after a fixed number of calls, so tests can cancel
// a query mid-run without timing races.
type countdownCtx struct {
	context.Context
	calls atomic.Int64
	after int64
	err   error
}

func (c *countdownCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return c.err
	}
	return nil
}

// cancelFixture builds a dynamic database with several PO groups so a
// query visits multiple group-loop iterations (each one a cooperative
// cancellation point).
func cancelFixture(t *testing.T) (*DynamicDB, []*poset.Domain) {
	t.Helper()
	dag := poset.NewDAG(6)
	dag.MustEdge(0, 1)
	dag.MustEdge(1, 2)
	dag.MustEdge(0, 3)
	dag.MustEdge(3, 4)
	dag.MustEdge(4, 5)
	dom, err := poset.NewDomain(dag)
	if err != nil {
		t.Fatal(err)
	}
	ds := &Dataset{Domains: []*poset.Domain{dom}}
	for i := 0; i < 600; i++ {
		ds.Pts = append(ds.Pts, Point{
			ID: int32(i),
			TO: []int32{int32((i * 31) % 997), int32((i*57 + 11) % 997)},
			PO: []int32{int32(i % 6)},
		})
	}
	return NewDynamicDB(ds, Options{}), []*poset.Domain{dom}
}

// TestQueryTSSContextCancelMidRun proves a dynamic query is abandoned
// between groups — not just refused before starting — and that the
// aborted run leaves nothing in the past-result cache.
func TestQueryTSSContextCancelMidRun(t *testing.T) {
	db, domains := cancelFixture(t)
	db.EnableCache(4)

	// after=2 passes the first group checks and cancels on a later one:
	// strictly mid-run.
	ctx := &countdownCtx{Context: context.Background(), after: 2, err: context.Canceled}
	res, err := db.QueryTSSContext(ctx, domains, Options{UseMemTree: true})
	if err == nil {
		t.Fatalf("canceled query succeeded with %d rows", len(res.SkylineIDs))
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if ctx.calls.Load() <= 2 {
		t.Fatalf("cancellation checked only %d times — not mid-run", ctx.calls.Load())
	}

	// The aborted run must not have poisoned the cache: the same query
	// now runs fine and reports a miss.
	res, err = db.QueryTSS(domains, Options{UseMemTree: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.FromCache {
		t.Fatal("first complete run served from cache — the canceled run stored a partial result")
	}
	if len(res.SkylineIDs) == 0 {
		t.Fatal("complete run returned no skyline")
	}
}

// TestDynamicSDCPlusContextCancelMidTraversal proves the SDC+ baseline
// honours cancellation *inside* a stratum traversal, not only at the
// pre-start check. A single-stratum dataset larger than dynCtxCheckEvery
// forces the heap loop past its first cooperative checkpoint; with
// after=1 the countdown context passes the pre-start check and cancels
// on that first in-loop checkpoint — strictly mid-traversal.
func TestDynamicSDCPlusContextCancelMidTraversal(t *testing.T) {
	dag := poset.NewDAG(2)
	dag.MustEdge(0, 1)
	dom, err := poset.NewDomain(dag)
	if err != nil {
		t.Fatal(err)
	}
	ds := &Dataset{Domains: []*poset.Domain{dom}}
	// One PO value -> one stratum holding every point, and anti-correlated
	// TO values (x+y constant) -> no subtree is ever pruned, so the
	// per-stratum step counter is guaranteed to cross dynCtxCheckEvery.
	n := int32(2 * dynCtxCheckEvery)
	for i := int32(0); i < n; i++ {
		ds.Pts = append(ds.Pts, Point{
			ID: i,
			TO: []int32{i, n - i},
			PO: []int32{0},
		})
	}
	domains := []*poset.Domain{dom}

	ctx := &countdownCtx{Context: context.Background(), after: 1, err: context.Canceled}
	_, err = DynamicSDCPlusContext(ctx, ds, domains, Options{})
	if err == nil {
		t.Fatal("canceled SDC+ query succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if calls := ctx.calls.Load(); calls < 2 {
		t.Fatalf("cancellation checked only %d times — the traversal loop never reached a checkpoint", calls)
	}

	// The same query under a background context completes and agrees
	// with the naive oracle: cancellation plumbing must not change the
	// answer.
	res, err := DynamicSDCPlusContext(context.Background(), ds, domains, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := NaiveSkylineUnder(domains, ds.Pts)
	if !sameIDSet(res.SkylineIDs, want) {
		t.Fatalf("SDC+ skyline %d rows, oracle %d", len(res.SkylineIDs), len(want))
	}
}
