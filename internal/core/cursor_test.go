package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestCursorMatchesSTSS: full enumeration through the cursor yields the
// same ids in the same order as the batch run.
func TestCursorMatchesSTSS(t *testing.T) {
	prop := func(seed int64, nRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%80) + 1
		ds := randomDataset(rng, n, 2, 1)
		batch := STSS(ds, Options{})
		cur := NewSTSSCursor(ds, Options{})
		var got []int32
		for {
			id, ok := cur.Next()
			if !ok {
				break
			}
			got = append(got, id)
		}
		if !cur.Exhausted() {
			return false
		}
		if len(got) != len(batch.SkylineIDs) {
			return false
		}
		for i := range got {
			if got[i] != batch.SkylineIDs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestCursorTopKCostsLess: stopping after the first result reads
// strictly fewer pages than enumerating the whole skyline — the
// pay-as-you-go guarantee of optimal progressiveness.
func TestCursorTopKCostsLess(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	ds := randomDataset(rng, 3000, 2, 1)
	full := STSS(ds, Options{})
	if len(full.SkylineIDs) < 5 {
		t.Skip("degenerate skyline")
	}
	cur := NewSTSSCursor(ds, Options{})
	id, ok := cur.Next()
	if !ok || id != full.SkylineIDs[0] {
		t.Fatalf("first cursor result %d, want %d", id, full.SkylineIDs[0])
	}
	topK := cur.Metrics()
	if topK.ReadIOs >= full.Metrics.ReadIOs {
		t.Errorf("top-1 read %d pages, full run %d — cursor should stop early",
			topK.ReadIOs, full.Metrics.ReadIOs)
	}
	if topK.DomChecks >= full.Metrics.DomChecks {
		t.Errorf("top-1 did %d checks, full run %d", topK.DomChecks, full.Metrics.DomChecks)
	}
}

// TestCursorFoldsKernelCounters: a cursor's kernel point tests and
// block skips reach KernelCounters exactly once — a mid-stream Metrics
// read folds the work so far, and further reads add nothing.
func TestCursorFoldsKernelCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	ds := randomDataset(rng, 2000, 2, 1)
	tests0, skips0 := KernelCounters()
	cur := NewSTSSCursor(ds, Options{})
	for range 5 {
		cur.Next()
	}
	cur.Metrics()
	for _, ok := cur.Next(); ok; _, ok = cur.Next() {
	}
	m := cur.Metrics()
	cur.Metrics()
	tests1, skips1 := KernelCounters()
	boxChecks := cur.checker.(*kernelChecker).nChecks
	if got, want := tests1-tests0, m.DomChecks-boxChecks; got != want || got == 0 {
		t.Errorf("KernelCounters gained %d dom tests, the cursor ran %d", got, want)
	}
	if got := skips1 - skips0; got != m.BlocksSkipped {
		t.Errorf("KernelCounters gained %d block skips, the cursor skipped %d", got, m.BlocksSkipped)
	}
}

func TestCursorEmpty(t *testing.T) {
	cur := NewSTSSCursor(&Dataset{}, Options{})
	if _, ok := cur.Next(); ok {
		t.Error("empty cursor must be exhausted")
	}
	if !cur.Exhausted() {
		t.Error("Exhausted() must be true")
	}
}

// TestCursorResumable: interleaving Next calls with metric snapshots
// never disturbs the sequence.
func TestCursorResumable(t *testing.T) {
	ds := figure3Dataset()
	cur := NewSTSSCursor(ds, Options{Capacity: 3})
	want := []int32{1, 2, 3, 4, 5}
	for _, w := range want {
		id, ok := cur.Next()
		if !ok || id != w {
			t.Fatalf("cursor yielded %d (ok=%v), want %d", id, ok, w)
		}
		if got := cur.Metrics(); len(got.Emissions) == 0 {
			t.Fatal("emissions must accumulate")
		}
	}
	if _, ok := cur.Next(); ok {
		t.Error("cursor must be exhausted after the skyline")
	}
}
