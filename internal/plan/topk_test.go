package plan

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
)

// checkIndexPrefix runs the dp-idp top-k of ds for k ∈ {1, 10, |sky|,
// |sky|+5} three ways — through the brute-force oracle, cold with no
// cache, and warm from memo's score index — and demands one sequence.
func checkIndexPrefix(t *testing.T, label string, ds *core.Dataset, memo *MemoCache) {
	t.Helper()
	if _, ok := memo.GetScoreIndex(); !ok {
		t.Fatalf("%s: memo holds no score index", label)
	}
	sky, err := Naive(ds, Query{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 10, len(sky), len(sky) + 5} {
		q := Query{TopK: k, Rank: RankDPIDP}
		want, err := Naive(ds, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != min(k, len(sky)) {
			t.Fatalf("%s k=%d: oracle kept %d of %d members", label, k, len(want), len(sky))
		}
		cold, cex := runPlan(t, ds, q, Env{})
		warm, wex := runPlan(t, ds, q, Env{Cache: memo})
		if cex.RankedFrom != "cold" || wex.RankedFrom != "index" {
			t.Fatalf("%s k=%d: ranked from %q and %q, want cold and index", label, k, cex.RankedFrom, wex.RankedFrom)
		}
		if !equal32(cold, want) || !equal32(warm, want) {
			t.Fatalf("%s k=%d: cold %v, index %v, oracle %v", label, k, cold, warm, want)
		}
	}
}

// TestIndexPrefixAgreement: a warm dp-idp top-k, a prefix of the score
// index's rank order, equals the cold ranking and the oracle's — on
// generated tables, after a mutation batch the memo advanced across (as
// Table.ApplyBatch does: the advanced index builds its order anew), and
// on a table whose members all score 0, where the order is all ties.
func TestIndexPrefixAgreement(t *testing.T) {
	for seed := range int64(3) {
		cfg := exp.StaticDefaults(1)
		cfg.N, cfg.Seed = 300, seed+1
		ds := exp.BuildDataset(cfg)
		memo := NewMemoCache()
		runPlan(t, ds, Query{TopK: 1, Rank: RankDPIDP}, Env{Cache: memo}) // builds the index
		label := fmt.Sprintf("seed %d", seed+1)
		checkIndexPrefix(t, label, ds, memo)

		// Remove two members and three other rows, add three rows.
		sky, err := Naive(ds, Query{})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(uint64(seed), 43))
		removes := []int{int(sky[0]), int(sky[len(sky)/2])}
		for len(removes) < 5 {
			if r := rng.IntN(len(ds.Pts)); !slices.Contains(removes, r) && !slices.Contains(sky, int32(r)) {
				removes = append(removes, r)
			}
		}
		var adds []core.Point
		for range 3 {
			p := core.Point{TO: make([]int32, ds.NumTO()), PO: make([]int32, ds.NumPO())}
			for d := range p.TO {
				p.TO[d] = int32(rng.IntN(cfg.TODomain))
			}
			for d := range p.PO {
				p.PO[d] = int32(rng.IntN(ds.Domains[d].Size()))
			}
			adds = append(adds, p)
		}
		nds, delta := mutateDS(ds, removes, adds)
		checkIndexPrefix(t, label+" advanced", nds, memo.Advance(ds, nds, delta))
	}

	// All ties: rows on an anti-diagonal, some of them twice, one PO
	// value. Nothing dominates anything, so every row is a member with
	// score 0 and the ranking is ascending id.
	ds := &core.Dataset{Domains: sampleDS(t, 0).Domains}
	for i := range 40 {
		x := int32(i % 25)
		ds.Pts = append(ds.Pts, core.Point{ID: int32(i), TO: []int32{x, 24 - x}, PO: []int32{0}})
	}
	memo := NewMemoCache()
	runPlan(t, ds, Query{TopK: 1, Rank: RankDPIDP}, Env{Cache: memo})
	ix, _ := memo.GetScoreIndex()
	for i, s := range ix.Scores() {
		if s != 0 {
			t.Fatalf("all-ties table: member %d scores %v", ix.Members()[i], s)
		}
	}
	if !equal32(ix.Ranked(), ix.Members()) {
		t.Fatalf("all-ties rank order %v, want ascending ids", ix.Ranked())
	}
	checkIndexPrefix(t, "all ties", ds, memo)
}

// TestIndexRankSubset: a proper subset of the index's members is still
// ranked from the index, by the members' index scores.
func TestIndexRankSubset(t *testing.T) {
	cfg := exp.StaticDefaults(1)
	cfg.N, cfg.Seed = 300, 9
	ds := exp.BuildDataset(cfg)
	sky, err := Naive(ds, Query{})
	if err != nil {
		t.Fatal(err)
	}
	ix := core.BuildScoreIndex(ds, sky)
	var sub []int32
	var scores []float64
	for i, m := range ix.Members() {
		if i%3 != 1 {
			sub = append(sub, m)
			scores = append(scores, -ix.Scores()[i])
		}
	}
	sc := &scoreContext{ds: ds, query: &Query{}, index: ix}
	for _, k := range []int{1, 10, len(sub), len(sub) + 5} {
		got, fromIndex, err := rankDPIDP(context.Background(), sc, sub, k)
		if err != nil {
			t.Fatal(err)
		}
		if want := sortByScore(sub, scores, k); !fromIndex || !equal32(got, want) {
			t.Fatalf("k=%d: subset ranked %v (from index: %v), want %v", k, got, fromIndex, want)
		}
	}
	outside := int32(0)
	for slices.Contains(sky, outside) {
		outside++
	}
	if _, fromIndex, err := rankDPIDP(context.Background(), sc, append(sub, outside), 3); err != nil || fromIndex {
		t.Fatalf("row %d, not a member, was ranked from the index (err %v)", outside, err)
	}
}

// TestSortByScoreSelects: the bounded selection keeps exactly the first
// k of a full sort under (score, id), with heavy ties, -0 beside 0, and
// k from 0 past n.
func TestSortByScoreSelects(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 8))
	levels := []float64{-2, -1, math.Copysign(0, -1), 0, 0.5}
	for trial := range 200 {
		n := rng.IntN(80)
		ids := make([]int32, n)
		scores := make([]float64, n)
		for i, id := range rng.Perm(3 * n) {
			if i == n {
				break
			}
			ids[i], scores[i] = int32(id), levels[rng.IntN(len(levels))]
		}
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		slices.SortFunc(order, func(a, b int) int {
			if scores[a] != scores[b] {
				return cmp.Compare(scores[a], scores[b])
			}
			return cmp.Compare(ids[a], ids[b])
		})
		for _, k := range []int{0, 1, 10, n, n + 5} {
			want := make([]int32, min(k, n))
			for i := range want {
				want[i] = ids[order[i]]
			}
			if got := sortByScore(ids, scores, k); !equal32(got, want) {
				t.Fatalf("trial %d n=%d k=%d: selected %v, full sort %v", trial, n, k, got, want)
			}
		}
	}
}
