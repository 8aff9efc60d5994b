package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestSortBasedMatchNaive: LESS agrees with the naive skyline
// on random TO data with heavy ties, across window sizes.
func TestSortBasedMatchNaive(t *testing.T) {
	prop := func(seed int64, nRaw uint16, dimsRaw, winRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%120) + 1
		dims := int(dimsRaw%3) + 1
		ds := randomDataset(rng, n, dims, 0)
		want := ds.NaiveSkyline()
		less, err := LESS(ds, Options{LESSWindow: int(winRaw % 16)})
		if err != nil {
			t.Log(err)
			return false
		}
		if !sameIDSet(less.SkylineIDs, want) {
			t.Logf("seed=%d: LESS = %v, want %v", seed, less.SkylineIDs, want)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestLESSFilterEliminates: the elimination-filter window drops
// dominated points before the sort on suitable data.
func TestLESSFilterEliminates(t *testing.T) {
	ds := &Dataset{}
	ds.Pts = append(ds.Pts, Point{ID: 0, TO: []int32{0, 0}})
	for i := 1; i <= 500; i++ {
		ds.Pts = append(ds.Pts, Point{ID: int32(i), TO: []int32{int32(i), int32(i)}})
	}
	res, err := LESS(ds, Options{LESSWindow: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SkylineIDs) != 1 {
		t.Fatalf("skyline = %v", res.SkylineIDs)
	}
	if res.Metrics.PointsPruned != 500 {
		t.Errorf("filter eliminated %d, want 500", res.Metrics.PointsPruned)
	}
}

func TestSortBasedRejectPO(t *testing.T) {
	ds := flightsDataset(airlineOrder1())
	if _, err := LESS(ds, Options{LESSWindow: 8}); err == nil {
		t.Error("LESS must reject PO attributes")
	}
}

func TestSortBasedEmpty(t *testing.T) {
	empty := &Dataset{}
	if res, err := LESS(empty, Options{}); err != nil || len(res.SkylineIDs) != 0 {
		t.Error("LESS on empty dataset broken")
	}
}

// TestSortBasedAgainstFlightsTO: the Figure 1(b) TO-only skyline.
func TestSortBasedAgainstFlightsTO(t *testing.T) {
	base := flightsDataset(airlineOrder1())
	ds := &Dataset{}
	for _, p := range base.Pts {
		ds.Pts = append(ds.Pts, Point{ID: p.ID, TO: p.TO})
	}
	want := []int32{1, 3, 6, 7, 9}
	less, _ := LESS(ds, Options{LESSWindow: 2})
	if !sameIDSet(less.SkylineIDs, want) {
		t.Errorf("LESS = %v, want %v", less.SkylineIDs, want)
	}
}
