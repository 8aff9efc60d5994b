package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestColSetCompactInterleaved: compaction must preserve exactly the
// live members, in insertion order, when survivors and corpses
// interleave within alive words. This is the regression test for a
// compaction bug where the rebuilt alive mask reused the old mask's
// backing array and clobbered liveness bits ahead of the read cursor,
// silently dropping the oldest survivors.
func TestColSetCompactInterleaved(t *testing.T) {
	k := newColSet(nil, 2, 0, 0)
	n := 1024
	for i := 0; i < n; i++ {
		k.append([]int32{int32(i), int32(n - i)}, nil, int32(i))
	}
	// Kill two of every three members (strictly more than half, so
	// maybeCompact actually compacts), leaving survivors interleaved.
	var want []int32
	for i := 0; i < n; i++ {
		if i%3 != 0 {
			k.alive[i>>6] &^= 1 << (uint(i) & 63)
			k.nAlive--
		} else {
			want = append(want, int32(i))
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
