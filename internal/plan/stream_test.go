package plan

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
)

// streamPlan plans q and runs it through RunStream, returning the
// emitted rows (in emission order) and the final result.
func streamPlan(t *testing.T, ds *core.Dataset, q Query, env Env) ([]StreamRow, *core.Result, Explain) {
	t.Helper()
	p, err := New(ds, q, env)
	if err != nil {
		t.Fatalf("New(%+v): %v", q, err)
	}
	var rows []StreamRow
	res, err := p.RunStream(context.Background(), ds, env, func(r StreamRow) error {
		rows = append(rows, r)
		return nil
	})
	if err != nil {
		t.Fatalf("RunStream(%+v): %v", q, err)
	}
	return rows, res, p.Explain
}

// TestRunStreamAgreesWithRun is the streamed≡buffered differential: for
// every battery query — plus unranked top-k variants — the rows emitted
// through RunStream must be exactly the rows a fresh buffered Run
// returns (set-equal for unranked full queries, rank-equal for ranked
// top-k), and the emitted sequence must equal the stream's own final
// result order.
func TestRunStreamAgreesWithRun(t *testing.T) {
	ds := sampleDS(t, 200)
	queries := append(queryBattery(),
		Query{TopK: 4},
		Query{TopK: 100},
		Query{Where: []Predicate{{Kind: TORange, Dim: 0, HasHi: true, Hi: 25}}, TopK: 3},
	)
	for qi, q := range queries {
		buffered, _ := runPlan(t, ds, q, Env{})
		rows, res, _ := streamPlan(t, ds, q, Env{})

		if len(rows) != len(res.SkylineIDs) {
			t.Fatalf("query %d: %d emitted rows, result has %d", qi, len(rows), len(res.SkylineIDs))
		}
		for i, r := range rows {
			if r.ID != res.SkylineIDs[i] {
				t.Fatalf("query %d: emission %d is row %d, result[%d] = %d", qi, i, r.ID, i, res.SkylineIDs[i])
			}
			if r.Index != i {
				t.Fatalf("query %d: emission %d carries index %d", qi, i, r.Index)
			}
		}

		if q.TopK > 0 && q.Rank == RankNone {
			// Unranked top-k: any K members of the skyline are a valid
			// answer; check size and membership against the full skyline.
			full, err := Naive(ds, Query{Subspace: q.Subspace, Where: q.Where})
			if err != nil {
				t.Fatal(err)
			}
			want := q.TopK
			if len(full) < want {
				want = len(full)
			}
			if len(rows) != want {
				t.Fatalf("query %d: streamed %d rows, want %d", qi, len(rows), want)
			}
			member := make(map[int32]bool, len(full))
			for _, id := range full {
				member[id] = true
			}
			for _, r := range rows {
				if !member[r.ID] {
					t.Fatalf("query %d: streamed row %d outside the skyline", qi, r.ID)
				}
			}
			continue
		}
		if q.TopK > 0 {
			// Ranked top-k: the stream must reproduce the buffered ranking
			// exactly, including order.
			if !equal32(res.SkylineIDs, buffered) {
				t.Fatalf("query %d: streamed ranking %v, buffered %v", qi, res.SkylineIDs, buffered)
			}
			continue
		}
		if !equal32(sorted32(res.SkylineIDs), sorted32(buffered)) {
			t.Fatalf("query %d: streamed set %v, buffered %v", qi, sorted32(res.SkylineIDs), sorted32(buffered))
		}
	}
}

// TestRunStreamFirstKIsPrefix: a first-K stream (unranked TopK) must be
// an exact prefix of the full stream — the scan's presorted order makes
// early termination a truncation, never a different answer. Every
// progressive row carries its SFS key, Σ TO + Σ topological ordinal,
// in non-decreasing order with ties in ascending id: the contract the
// coordinator's streamed certification relies on.
func TestRunStreamFirstKIsPrefix(t *testing.T) {
	ds := sampleDS(t, 200)
	full, _, _ := streamPlan(t, ds, Query{}, Env{})
	for i, r := range full {
		var want int64
		for _, v := range ds.Pts[r.ID].TO {
			want += int64(v)
		}
		for d, v := range ds.Pts[r.ID].PO {
			want += int64(ds.Domains[d].Ord(v))
		}
		if r.Key == nil {
			t.Fatalf("row %d: progressive row without a key", r.ID)
		}
		if *r.Key != want {
			t.Fatalf("row %d: key %d, want Σ TO + Σ ordinal = %d", r.ID, *r.Key, want)
		}
		if i > 0 && (*r.Key < *full[i-1].Key || *r.Key == *full[i-1].Key && r.ID < full[i-1].ID) {
			t.Fatalf("emission %d: row %d key %d follows row %d key %d", i, r.ID, *r.Key, full[i-1].ID, *full[i-1].Key)
		}
	}
	for _, k := range []int{1, 2, 5, len(full), len(full) + 10} {
		rows, _, _ := streamPlan(t, ds, Query{TopK: k}, Env{})
		want := k
		if len(full) < want {
			want = len(full)
		}
		if len(rows) != want {
			t.Fatalf("TopK=%d: %d rows, want %d", k, len(rows), want)
		}
		for i := range rows {
			if rows[i].ID != full[i].ID {
				t.Fatalf("TopK=%d: position %d is row %d, full stream has %d", k, i, rows[i].ID, full[i].ID)
			}
		}
	}
}

// TestRunStreamThresholdTopK: the score-threshold early stop of the
// origin-ideal ranked stream must reproduce the buffered ranking
// exactly — same ids, same order — while visiting fewer rows than the
// full enumeration when the bound bites: at k = 1 it makes fewer
// dominance tests than an unranked full stream.
func TestRunStreamThresholdTopK(t *testing.T) {
	ds := sampleDS(t, 400)
	_, full, _ := streamPlan(t, ds, Query{}, Env{})
	for _, k := range []int{1, 3, 10} {
		q := Query{TopK: k, Rank: RankIdeal}
		buffered, _ := runPlan(t, ds, q, Env{})
		rows, res, ex := streamPlan(t, ds, q, Env{})
		if ex.Route != RouteCursor || ex.Algorithm != "sfs" {
			t.Fatalf("k=%d: streamed explain %s/%s, want cursor/sfs", k, ex.Route, ex.Algorithm)
		}
		if k == 1 && res.Metrics.DomChecks >= full.Metrics.DomChecks {
			t.Fatalf("k=1: %d dominance tests, the full stream made %d", res.Metrics.DomChecks, full.Metrics.DomChecks)
		}
		if !equal32(res.SkylineIDs, buffered) {
			t.Fatalf("k=%d: streamed %v, buffered %v", k, res.SkylineIDs, buffered)
		}
		if len(rows) != len(buffered) {
			t.Fatalf("k=%d: %d emissions for %d result rows", k, len(rows), len(buffered))
		}
	}
}

// TestRunStreamCacheFill: a fully exhausted unranked stream warms the
// same memo the buffered route would; an early-terminated stream and an
// aborted stream store nothing.
func TestRunStreamCacheFill(t *testing.T) {
	ds := sampleDS(t, 200)

	// Full exhaustion fills the cache.
	cache := &memCache{}
	env := Env{Cache: cache}
	_, res, _ := streamPlan(t, ds, Query{}, env)
	got, _, ok := cache.GetFull()
	if !ok {
		t.Fatal("exhausted stream left the full-skyline cache empty")
	}
	if !equal32(sorted32(got), sorted32(res.SkylineIDs)) {
		t.Fatalf("cache holds %v, stream returned %v", sorted32(got), sorted32(res.SkylineIDs))
	}

	// Early termination must not: the stored "full skyline" would be a
	// K-row lie.
	cache = &memCache{}
	env = Env{Cache: cache}
	streamPlan(t, ds, Query{TopK: 2}, env)
	if _, _, ok := cache.GetFull(); ok {
		t.Fatal("early-terminated stream poisoned the full-skyline cache")
	}

	// An abort (emit error) mid-stream must not either.
	cache = &memCache{}
	env = Env{Cache: cache}
	p, err := New(ds, Query{}, env)
	if err != nil {
		t.Fatal(err)
	}
	abort := errors.New("client went away")
	n := 0
	_, err = p.RunStream(context.Background(), ds, env, func(StreamRow) error {
		n++
		if n == 2 {
			return abort
		}
		return nil
	})
	if !errors.Is(err, abort) {
		t.Fatalf("aborted stream returned %v, want the emit error", err)
	}
	if _, _, ok := cache.GetFull(); ok {
		t.Fatal("aborted stream poisoned the full-skyline cache")
	}

	// And a canceled context surfaces as such, also without a fill.
	cache = &memCache{}
	env = Env{Cache: cache}
	p, err = New(ds, Query{}, env)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	_, err = p.RunStream(ctx, ds, env, func(StreamRow) error {
		cancel()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled stream returned %v", err)
	}
	if _, _, ok := cache.GetFull(); ok {
		t.Fatal("canceled stream poisoned the full-skyline cache")
	}
}
