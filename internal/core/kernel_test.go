package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/poset"
)

// TestColSetCompactInterleaved: compaction must preserve exactly the
// live members, in insertion order, when survivors and corpses
// interleave within alive words, and must rebuild the zone maps and
// member rows of the blocks it refills. This is the regression test for
// a compaction bug where the rebuilt alive mask reused the old mask's
// backing array and clobbered liveness bits ahead of the read cursor,
// silently dropping the oldest survivors. The second input has two PO
// dimensions, so stale member rows would show: after compaction, every
// probe must get the same dominator and eviction answers from the set
// as from one built fresh from the survivors.
func TestColSetCompactInterleaved(t *testing.T) {
	const n = 1024
	rng := rand.New(rand.NewSource(11))
	mixed := randomDataset(rng, 2*n, 2, 2)
	for _, tc := range []struct {
		name string
		ds   *Dataset
	}{
		{"to-only", nil},
		{"2 PO dims", mixed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var domains []*poset.Domain
			pts := make([]Point, n)
			for i := range pts {
				pts[i] = Point{ID: int32(i), TO: []int32{int32(i), int32(n - i)}}
			}
			if tc.ds != nil {
				domains = tc.ds.Domains
				copy(pts, tc.ds.Pts[:n])
			}
			k := newColSet(domains, 2, 0, 0, true)
			for _, p := range pts {
				k.append(p.TO, p.PO, p.ID)
			}
			// Kill two of every three members (strictly more than half, so
			// maybeCompact actually compacts), leaving survivors interleaved.
			var want []int32
			fresh := newColSet(domains, 2, 0, 0, true)
			for i, p := range pts {
				if i%3 != 0 {
					k.alive[i>>6] &^= 1 << (uint(i) & 63)
					k.nAlive--
				} else {
					want = append(want, int32(i))
					fresh.append(p.TO, p.PO, p.ID)
				}
			}
			k.maybeCompact()
			if k.cols.Len() != len(want) {
				t.Fatalf("compacted to %d members, want %d", k.cols.Len(), len(want))
			}
			got := k.aliveIDs(nil)
			if len(got) != len(want) {
				t.Fatalf("%d alive ids after compaction, want %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("alive[%d] = %d, want %d", i, got[i], want[i])
				}
			}
			if tc.ds == nil {
				return
			}
			pr, fpr := k.newProbe(), fresh.newProbe()
			for _, p := range tc.ds.Pts[n:] {
				k.begin(pr, p.TO, p.PO)
				fresh.begin(fpr, p.TO, p.PO)
				if a, b := k.anyDominator(pr), fresh.anyDominator(fpr); a != b {
					t.Fatalf("probe %d: compacted set anyDominator=%v, fresh set %v", p.ID, a, b)
				}
				k.evictDominatedBy(pr)
				fresh.evictDominatedBy(fpr)
				if a, b := k.aliveIDs(nil), fresh.aliveIDs(nil); !slices.Equal(a, b) {
					t.Fatalf("probe %d evicts down to %d members in the compacted set, %d in the fresh set", p.ID, len(a), len(b))
				}
			}
			if k.nAlive == len(want) {
				t.Fatal("no probe evicted a member")
			}
		})
	}
}

// TestRowBudgetDecidesLikeRows: a block past the member rows' budget
// tests its zone map with a value-presence bitset and its members with
// TPrefers, and both make the rows' decisions. So SFS and BNL under a
// budget that leaves rows on a few blocks only return the skyline of
// the default budget after exactly the same dominance tests and block
// skips.
func TestRowBudgetDecidesLikeRows(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ds := randomDataset(rng, 4000, 2, 2)
	for i := range ds.Pts {
		x := int32(rng.Intn(1000))
		ds.Pts[i].TO[0], ds.Pts[i].TO[1] = x, 1000-x+int32(rng.Intn(100))
	}
	for _, alg := range []struct {
		name string
		run  func(*Dataset, Options) *Result
	}{{"SFS", SFS}, {"BNL", BNL}} {
		want, got := alg.run(ds, Options{}), alg.run(ds, Options{ClosureBudget: 600})
		if len(want.SkylineIDs) < 3*kernelBlock {
			t.Fatalf("%s: skyline of %d spans too few blocks to pass the budget", alg.name, len(want.SkylineIDs))
		}
		if !sameIDSet(got.SkylineIDs, want.SkylineIDs) {
			t.Errorf("%s: %d ids under the tight budget, %d under the default", alg.name, len(got.SkylineIDs), len(want.SkylineIDs))
		}
		g, w := got.Metrics, want.Metrics
		if g.DomChecks != w.DomChecks || g.BlocksSkipped != w.BlocksSkipped {
			t.Errorf("%s: tight budget ran %d tests and skipped %d blocks, default budget %d and %d",
				alg.name, g.DomChecks, g.BlocksSkipped, w.DomChecks, w.BlocksSkipped)
		}
	}
}

// shardedCandidates splits ds round-robin into nShards shards and
// returns each shard's local skyline as merge candidates: grouped
// shard by shard, or interleaved one candidate per shard in turn.
func shardedCandidates(ds *Dataset, nShards int, interleave bool) ([]Point, []int) {
	locals := make([][]Point, nShards)
	for s := range locals {
		var local []Point
		for i := s; i < len(ds.Pts); i += nShards {
			local = append(local, ds.Pts[i])
		}
		keep := map[int32]bool{}
		for _, id := range NaiveSkylineUnder(ds.Domains, local) {
			keep[id] = true
		}
		for _, p := range local {
			if keep[p.ID] {
				locals[s] = append(locals[s], p)
			}
		}
	}
	var pts []Point
	var shard []int
	if !interleave {
		for s, local := range locals {
			for _, p := range local {
				pts = append(pts, p)
				shard = append(shard, s)
			}
		}
		return pts, shard
	}
	for j := 0; ; j++ {
		more := false
		for s, local := range locals {
			if j < len(local) {
				pts = append(pts, local[j])
				shard = append(shard, s)
				more = true
			}
		}
		if !more {
			return pts, shard
		}
	}
}

// mergeMatchesRef checks the kernel merge pass against its scalar
// reference (same survivor indexes) and the global skyline.
func mergeMatchesRef(t *testing.T, label string, ds *Dataset, pts []Point, shard []int, workers int) bool {
	got := MergeSurvivors(ds.Domains, pts, shard, workers)
	ref := MergeSurvivorsRef(ds.Domains, pts, shard, workers)
	if len(got) != len(ref) {
		t.Logf("%s: kernel kept %d, reference kept %d", label, len(got), len(ref))
		return false
	}
	for i := range got {
		if got[i] != ref[i] {
			t.Logf("%s: survivor %d: kernel idx %d, reference idx %d", label, i, got[i], ref[i])
			return false
		}
	}
	var ids []int32
	for _, i := range got {
		ids = append(ids, pts[i].ID)
	}
	if !sameIDSet(ids, ds.NaiveSkyline()) {
		t.Logf("%s: merge survivors %v, global skyline %v", label, ids, ds.NaiveSkyline())
		return false
	}
	return true
}

// TestMergeSurvivorsKernelMatchesRef: the kernel merge pass and its
// scalar reference answer identically — same survivor indexes, and the
// survivor set is exactly the global skyline — for random shardings
// where each shard contributes its own local skyline (the precondition
// cluster shard responses satisfy by construction). Candidates arrive
// grouped by shard, and interleaved across 3–4 shards.
func TestMergeSurvivorsKernelMatchesRef(t *testing.T) {
	prop := func(seed int64, nRaw uint16, shRaw, wRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%80) + 1
		nShards := int(shRaw%4) + 1
		workers := int(wRaw%4) + 1
		ds := randomDataset(rng, n, 2, 2)
		pts, shard := shardedCandidates(ds, nShards, false)
		if !mergeMatchesRef(t, fmt.Sprintf("seed=%d grouped", seed), ds, pts, shard, workers) {
			return false
		}
		pts, shard = shardedCandidates(ds, 3+int(shRaw%2), true)
		return mergeMatchesRef(t, fmt.Sprintf("seed=%d interleaved", seed), ds, pts, shard, workers)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
	// Enough interleaved candidates to fill several 256-member blocks:
	// noisy anti-correlated TO columns keep most rows in the skyline.
	rng := rand.New(rand.NewSource(5))
	ds := randomDataset(rng, 0, 2, 2)
	for i := int32(0); i < 3000; i++ {
		ds.Pts = append(ds.Pts, Point{
			ID: i,
			TO: []int32{i + rng.Int31n(40), 3000 - i + rng.Int31n(40)},
			PO: []int32{rng.Int31n(int32(ds.Domains[0].Size())), rng.Int31n(int32(ds.Domains[1].Size()))},
		})
	}
	pts, shard := shardedCandidates(ds, 4, true)
	if len(pts) <= 2*kernelBlock {
		t.Fatalf("only %d candidates, want > %d", len(pts), 2*kernelBlock)
	}
	if !mergeMatchesRef(t, "interleaved, 4 shards", ds, pts, shard, 2) {
		t.Fatal("kernel merge disagrees")
	}
}
