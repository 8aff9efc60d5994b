package core

import (
	"context"
	"errors"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/poset"
)

// TestRegistryContents: all seven registered algorithms are invocable
// through the registry, lookups are case-insensitive, and the listing
// is sorted and stable.
func TestRegistryContents(t *testing.T) {
	want := []string{"bbs+", "bnl", "less", "sdc", "sdc+", "sfs", "stss"}
	names := AlgorithmNames()
	if !sort.StringsAreSorted(names) {
		t.Errorf("AlgorithmNames not sorted: %v", names)
	}
	got := map[string]bool{}
	for _, n := range names {
		got[n] = true
	}
	for _, n := range want {
		if !got[n] {
			t.Errorf("algorithm %q not registered (have %v)", n, names)
		}
	}
	if _, ok := Lookup("sTSS"); !ok {
		t.Error("lookup must be case-insensitive")
	}
	if _, ok := Lookup("no-such-algorithm"); ok {
		t.Error("lookup of unknown name must fail")
	}
}

// TestRegistryRun: every registered algorithm computes the flights
// example correctly through the uniform Run signature — PO-capable ones
// on the PO dataset, TO-only ones via their error.
func TestRegistryRun(t *testing.T) {
	ds := flightsDataset(airlineOrder1())
	want := ds.NaiveSkyline()
	for _, algo := range Algorithms() {
		res, err := algo.Run(ds, Options{})
		if algo.Capabilities().POCapable {
			if err != nil {
				t.Errorf("%s: %v", algo.Name(), err)
				continue
			}
			if !sameIDSet(res.SkylineIDs, want) {
				t.Errorf("%s = %v, want %v", algo.Name(), res.SkylineIDs, want)
			}
		} else if err == nil {
			t.Errorf("%s must reject PO attributes through Run", algo.Name())
		}
	}
}

// TestRegisterDuplicatePanics: double registration is a programming
// error.
func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register must panic")
		}
	}()
	Register(NewAlgorithm("stss", Capabilities{}, nil))
}

// pollCtx reports Canceled from its (after+1)-th Err call on.
type pollCtx struct {
	context.Context
	calls atomic.Int64
	after int64
}

func (c *pollCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestAlgorithmsObserveCtxMidRun: every registered algorithm polls
// Options.Ctx inside its scan, not just around it. The rows sit on an
// anti-diagonal, so nothing is pruned and every scan is longer than two
// poll cadences; the context survives the first poll and cancels at the
// second, a cadence into the scan. An algorithm that polled only at its
// first step would be caught by Run's own check on the second call, so
// three calls is the proof of a mid-scan poll.
func TestAlgorithmsObserveCtxMidRun(t *testing.T) {
	dag := poset.NewDAG(2)
	dag.MustEdge(0, 1)
	n := 2*dynCtxCheckEvery + 10
	po := &Dataset{Domains: []*poset.Domain{poset.MustDomain(dag)}}
	to := &Dataset{}
	for i := 0; i < n; i++ {
		p := Point{ID: int32(i), TO: []int32{int32(i), int32(n - 1 - i)}}
		to.Pts = append(to.Pts, p)
		p.PO = []int32{int32(i % 2)}
		po.Pts = append(po.Pts, p)
	}
	for _, algo := range Algorithms() {
		ds := to
		if algo.Capabilities().POCapable {
			ds = po
		}
		ctx := &pollCtx{Context: context.Background(), after: 1}
		res, err := algo.Run(ds, Options{Ctx: ctx})
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Errorf("%s: result %v, error %v; want a canceled run", algo.Name(), res != nil, err)
		}
		if got := ctx.calls.Load(); got < 3 {
			t.Errorf("%s: context polled %d times — never mid-scan", algo.Name(), got)
		}
		live, err := algo.Run(ds, Options{Ctx: context.Background()})
		if err != nil || len(live.SkylineIDs) != n {
			t.Errorf("%s under a live context: %v", algo.Name(), err)
		}
	}
}
