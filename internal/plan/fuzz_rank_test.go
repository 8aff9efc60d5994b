package plan

import (
	"context"
	"testing"

	"repro/internal/core"
)

// fuzzRankQuery derives a query exercising this PR's ranking additions:
// the base subspace/where shape comes from fuzzQuery with its rank tail
// cleared, then one of dp-idp, layer or an F-dominance restriction is
// attached. Restricted weights are dyadic (multiples of 1/8) so the
// oracle's vertex arithmetic is float-exact.
func fuzzRankQuery(r *fuzzReader, ds *core.Dataset) Query {
	q := fuzzQuery(r, ds)
	q.TopK, q.Rank, q.Ideal = 0, RankNone, nil
	switch r.byte() % 3 {
	case 0:
		q.TopK = 1 + int(r.byte())%6
		q.Rank = RankDPIDP
	case 1:
		q.TopK = 1 + int(r.byte())%4
		q.Rank = RankLayer
	default:
		fw := make([]float64, ds.NumTO())
		for d := range fw {
			fw[d] = float64(r.byte()%3) / 8 // ≤ 2/8 per column, ≤ 2 TO columns: Σ ≤ 1
		}
		q.FWeights = fw
		if r.byte()%2 == 0 {
			q.TopK = 1 + int(r.byte())%6 // unranked prefix over the restricted skyline
		}
	}
	return q
}

// FuzzRankAgreement is the differential harness for the pluggable
// rankings: on any byte-derived workload, the planned dp-idp and layer
// top-k must reproduce the brute-force oracle's exact sequence (scores
// are bit-identical by construction, ties break by id), and the
// F-dominance restricted skyline must match the oracle's
// vertex-decided member set — cold, through the scalar reference
// kernel, and behind a warm memo. When the shape admits the score
// index, the index advanced across a random mutation must equal a
// from-scratch rebuild, histogram by histogram. Explore further with
//
//	go test -run='^$' -fuzz=FuzzRankAgreement ./internal/plan
func FuzzRankAgreement(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 3, 2, 0, 1, 8, 1, 0, 2, 0, 3, 1, 4, 2, 5, 3, 6, 0, 7, 1})
	f.Add([]byte{0, 2, 4, 4, 0, 1, 1, 2, 2, 3, 3, 2, 12, 5, 0, 5, 1, 5, 2, 5, 0, 1, 1, 2, 2, 0, 9, 9})
	f.Add([]byte{1, 0, 16, 2, 1, 0, 3, 1, 7, 7, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		ds := fuzzDataset(r)
		if err := ds.Validate(); err != nil {
			t.Fatalf("generated invalid dataset: %v", err)
		}
		q := fuzzRankQuery(r, ds)
		want, err := Naive(ds, q)
		if err != nil {
			t.Fatalf("oracle rejected a generated query %+v: %v", q, err)
		}

		// An unranked TopK over the restricted skyline keeps a prefix in
		// algorithm-dependent emission order: check membership + size
		// against the unbounded restricted set instead of the sequence.
		prefix := len(q.FWeights) > 0 && q.TopK > 0
		var member map[int32]bool
		var fullLen int
		if prefix {
			uq := q
			uq.TopK = 0
			full, err := Naive(ds, uq)
			if err != nil {
				t.Fatal(err)
			}
			fullLen = len(full)
			member = make(map[int32]bool, len(full))
			for _, id := range full {
				member[id] = true
			}
		}

		check := func(label string, ids []int32, err error) {
			if err != nil {
				t.Fatalf("%s: %v (query %+v)", label, err, q)
			}
			if prefix {
				wantLen := q.TopK
				if fullLen < wantLen {
					wantLen = fullLen
				}
				if len(ids) != wantLen {
					t.Fatalf("%s: %d rows, want %d (query %+v)", label, len(ids), wantLen, q)
				}
				for _, id := range ids {
					if !member[id] {
						t.Fatalf("%s: row %d outside the restricted skyline (query %+v)", label, id, q)
					}
				}
				return
			}
			if q.Rank != RankNone {
				// Ranked sequences are deterministic end to end.
				if !equal32(ids, want) {
					t.Fatalf("%s: got %v want %v (query %+v, n=%d)", label, ids, want, q, len(ds.Pts))
				}
				return
			}
			if !equal32(sorted32(ids), sorted32(want)) {
				t.Fatalf("%s: got %v want %v (query %+v, n=%d)", label, sorted32(ids), sorted32(want), q, len(ds.Pts))
			}
		}

		run := func(label string, fq Query, env Env) {
			p, err := New(ds, fq, env)
			if err != nil {
				t.Fatalf("%s: New: %v (query %+v)", label, err, fq)
			}
			res, err := p.Run(context.Background(), ds, env)
			var ids []int32
			if res != nil {
				ids = res.SkylineIDs
			}
			check(label, ids, err)
		}

		env := Env{}
		run("auto", q, env)
		{
			fq := q
			fq.Hints.NoKernel = true
			run("nokernel", fq, env)
		}
		// Memo leg: a real MemoCache so index-eligible dp-idp shapes
		// exercise cold-build + index-served runs back to back.
		cenv := Env{Cache: NewMemoCache()}
		run("cold memo", q, cenv)
		run("warm memo", q, cenv)

		// Score-index maintenance: mutate, advance the memo, and demand
		// the carried index equals a from-scratch rebuild exactly.
		if q.Rank == RankDPIDP && q.Subspace == nil && len(q.Where) == 0 {
			checkIndexAdvance(t, r, ds, q)
		}
	})
}

// checkIndexAdvance applies a byte-derived mutation to a warmed table
// and asserts the advanced score index is integer-identical to
// core.BuildScoreIndex over the new snapshot, then that the ranked
// query against the advanced cache still matches the oracle.
func checkIndexAdvance(t *testing.T, r *fuzzReader, ds *core.Dataset, q Query) {
	memo := NewMemoCache()
	env := Env{Cache: memo}
	p, err := New(ds, q, env)
	if err != nil {
		t.Fatalf("index warm-up: New: %v", err)
	}
	if _, err := p.Run(context.Background(), ds, env); err != nil {
		t.Fatalf("index warm-up: %v", err)
	}
	if _, ok := memo.GetScoreIndex(); !ok {
		t.Fatalf("no score index after a full-shape dp-idp query (query %+v)", q)
	}

	n := len(ds.Pts)
	seen := map[int]bool{}
	var removes []int
	for i := int(r.byte()) % (n/2 + 1); i > 0; i-- {
		idx := int(r.byte()) % n
		if !seen[idx] {
			seen[idx] = true
			removes = append(removes, idx)
		}
	}
	var adds []core.Point
	for i := int(r.byte()) % 4; i > 0; i-- {
		p := core.Point{}
		for d := 0; d < ds.NumTO(); d++ {
			p.TO = append(p.TO, int32(r.byte())%8)
		}
		for d := 0; d < ds.NumPO(); d++ {
			p.PO = append(p.PO, int32(r.byte())%int32(ds.Domains[d].Size()))
		}
		adds = append(adds, p)
	}
	newDS, delta := mutateDS(ds, removes, adds)
	adv := memo.Advance(ds, newDS, delta)

	if ix, ok := adv.GetScoreIndex(); ok {
		newSky, err := Naive(newDS, Query{})
		if err != nil {
			t.Fatal(err)
		}
		wantIx := core.BuildScoreIndex(newDS, newSky)
		if !equal32(ix.Members(), wantIx.Members()) {
			t.Fatalf("advanced index members %v, rebuild has %v (removes %v, adds %d)",
				ix.Members(), wantIx.Members(), removes, len(adds))
		}
		for i := range wantIx.Members() {
			got, want := ix.Hist(i), wantIx.Hist(i)
			if len(got) != len(want) {
				t.Fatalf("member %d: advanced hist %v, rebuild %v", wantIx.Members()[i], got, want)
			}
			for k, c := range want {
				if got[k] != c {
					t.Fatalf("member %d: advanced hist %v, rebuild %v", wantIx.Members()[i], got, want)
				}
			}
		}
	}

	// End to end on the new snapshot, whatever the advance decided.
	want, err := Naive(newDS, q)
	if err != nil {
		t.Fatal(err)
	}
	aenv := Env{Cache: adv}
	ap, err := New(newDS, q, aenv)
	if err != nil {
		t.Fatalf("post-advance: New: %v", err)
	}
	res, err := ap.Run(context.Background(), newDS, aenv)
	if err != nil {
		t.Fatalf("post-advance: %v", err)
	}
	if !equal32(res.SkylineIDs, want) {
		t.Fatalf("post-advance ranked query: got %v want %v (removes %v, adds %d)",
			res.SkylineIDs, want, removes, len(adds))
	}
}
