package core

import (
	"math/rand"
	"sync"
	"testing"
)

// TestScoreIndexScoresConcurrent: concurrent first reads of a shared
// index all get the one memoized score slice, and every score equals
// DPIDPScoreFromHist of the member's histogram bit for bit. Run under
// -race it also proves the memoization publishes safely.
func TestScoreIndexScoresConcurrent(t *testing.T) {
	ds := randomDataset(rand.New(rand.NewSource(5)), 400, 2, 2)
	ix := BuildScoreIndex(ds, ds.NaiveSkyline())
	want := make([]float64, ix.Len())
	for i := range want {
		want[i] = DPIDPScoreFromHist(ix.Hist(i))
	}
	got := make([][]float64, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = ix.Scores()
		}()
	}
	wg.Wait()
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
