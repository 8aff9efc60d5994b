package core

import (
	"math/rand"
	"sync"
	"testing"
)

// TestScoreIndexScoresConcurrent: concurrent first reads of a shared
// index all get the one memoized score slice and the one rank order,
// every score equals DPIDPScoreFromHist of the member's histogram bit
// for bit, and the order is descending score, ascending id on ties.
// Run under -race it also proves the memoization publishes safely.
func TestScoreIndexScoresConcurrent(t *testing.T) {
	ds := randomDataset(rand.New(rand.NewSource(5)), 400, 2, 2)
	ix := BuildScoreIndex(ds, ds.NaiveSkyline())
	want := make([]float64, ix.Len())
	for i := range want {
		want[i] = DPIDPScoreFromHist(ix.Hist(i))
	}
	got := make([][]float64, 8)
	ranked := make([][]int32, len(got))
	holds := make([]bool, len(got))
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g%2 == 0 {
				holds[g] = ix.Holds(ix.Members())
			}
			got[g], ranked[g] = ix.Scores(), ix.Ranked()
		}()
	}
	wg.Wait()
	slot := make(map[int32]int, ix.Len())
	for i, m := range ix.Members() {
		slot[m] = i
	}
	for g, r := range ranked {
		if len(r) != ix.Len() || (len(r) > 0 && &r[0] != &ranked[0][0]) {
			t.Fatalf("reader %d got a different rank order than reader 0", g)
		}
		if g%2 == 0 && !holds[g] {
			t.Fatalf("reader %d: the index does not hold its own members", g)
		}
		for i := 1; i < len(r); i++ {
			a, b := want[slot[r[i-1]]], want[slot[r[i]]]
			if a < b || (a == b && r[i-1] > r[i]) {
				t.Fatalf("rank order: member %d (score %v) before %d (score %v)", r[i-1], a, r[i], b)
			}
		}
	}
	if ix.Holds([]int32{-1}) || ix.Holds([]int32{int32(len(ds.Pts))}) {
		t.Fatal("the index holds a row id outside the table")
	}
	for g, s := range got {
		if len(s) != len(want) {
			t.Fatalf("reader %d: %d scores for %d members", g, len(s), len(want))
		}
		if len(s) > 0 && &s[0] != &got[0][0] {
			t.Fatalf("reader %d got a different score slice than reader 0", g)
		}
		for i := range s {
			if s[i] != want[i] {
				t.Fatalf("reader %d: member %d score %v, want %v", g, ix.Members()[i], s[i], want[i])
			}
		}
	}
}
