package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/poset"
)

// Tests of SFS's TO-only paths: LESS's elimination filter in front of
// the presort (sfsSurvivors) and the kernel's hot list behind it.

// TestSortBasedMatchNaive: SFS on TO-only data agrees with the naive
// skyline on random data with heavy ties, on the kernel and on the
// scalar reference, and every row is either pruned by the filter or
// scanned.
func TestSortBasedMatchNaive(t *testing.T) {
	prop := func(seed int64, nRaw uint16, dimsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%120) + 1
		dims := int(dimsRaw%3) + 1
		ds := randomDataset(rng, n, dims, 0)
		want := ds.NaiveSkyline()
		for _, opt := range []Options{{}, {NoKernel: true}} {
			res := SFS(ds, opt)
			if !sameIDSet(res.SkylineIDs, want) {
				t.Logf("seed=%d NoKernel=%v: SFS = %v, want %v", seed, opt.NoKernel, res.SkylineIDs, want)
				return false
			}
			if pruned := res.Metrics.PointsPruned; pruned > int64(n-len(want)) {
				t.Logf("seed=%d: filter pruned %d of %d dominated rows", seed, pruned, n-len(want))
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestLESSFilterEliminates: on TO-only data SFS's elimination filter
// drops dominated rows before the sort and counts them.
func TestLESSFilterEliminates(t *testing.T) {
	ds := &Dataset{}
	ds.Pts = append(ds.Pts, Point{ID: 0, TO: []int32{0, 0}})
	for i := 1; i <= 500; i++ {
		ds.Pts = append(ds.Pts, Point{ID: int32(i), TO: []int32{int32(i), int32(i)}})
	}
	res := SFS(ds, Options{})
	if len(res.SkylineIDs) != 1 {
		t.Fatalf("skyline = %v", res.SkylineIDs)
	}
	if res.Metrics.PointsPruned != 500 {
		t.Errorf("filter eliminated %d, want 500", res.Metrics.PointsPruned)
	}
	if res.Metrics.DomChecks < 500 {
		t.Errorf("DomChecks = %d, want the filter's 500 tests counted", res.Metrics.DomChecks)
	}
}

// TestSortBasedRejectPO: the filter compares TO values only, which is
// unsound once a PO column can make a row incomparable, so SFS never
// runs it on PO data. Row 1 is worse than row 0 in every TO column but
// holds an incomparable PO value: a TO filter would drop it.
func TestSortBasedRejectPO(t *testing.T) {
	dom := poset.MustDomain(poset.NewDAG(2)) // two incomparable values
	ds := &Dataset{Domains: []*poset.Domain{dom}, Pts: []Point{
		{ID: 0, TO: []int32{0, 0}, PO: []int32{0}},
		{ID: 1, TO: []int32{1, 1}, PO: []int32{1}},
	}}
	res := SFS(ds, Options{})
	if !sameIDSet(res.SkylineIDs, []int32{0, 1}) || res.Metrics.PointsPruned != 0 {
		t.Errorf("SFS on PO data: skyline %v, pruned %d; want [0 1], 0", res.SkylineIDs, res.Metrics.PointsPruned)
	}
}

func TestSortBasedEmpty(t *testing.T) {
	if res := SFS(&Dataset{}, Options{}); len(res.SkylineIDs) != 0 {
		t.Error("SFS on empty dataset broken")
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
	if got := SFS(ds, Options{}).SkylineIDs; !sameIDSet(got, want) {
		t.Errorf("SFS = %v, want %v", got, want)
	}
}
