package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/poset"
)

// maintainDataset builds a mixed 2-TO / diamond+chain dataset in table
// layout.
func maintainDataset(t *testing.T, n int, seed int64) *Dataset {
	t.Helper()
	diamond := poset.NewDAG(4)
	diamond.MustEdge(0, 1)
	diamond.MustEdge(0, 2)
	diamond.MustEdge(1, 3)
	diamond.MustEdge(2, 3)
	chain := poset.NewDAG(3)
	chain.MustEdge(0, 1)
	chain.MustEdge(1, 2)
	d1, err := poset.NewDomain(diamond)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := poset.NewDomain(chain)
	if err != nil {
		t.Fatal(err)
	}
	ds := &Dataset{Domains: []*poset.Domain{d1, d2}}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		ds.Pts = append(ds.Pts, Point{
			ID: int32(i),
			TO: []int32{int32(rng.Intn(40)), int32(rng.Intn(40))},
			PO: []int32{int32(rng.Intn(4)), int32(rng.Intn(3))},
		})
		if rng.Intn(15) == 0 && i+1 < n { // exact duplicates
			i++
			p := ds.Pts[len(ds.Pts)-1]
			dup := Point{ID: int32(i), TO: append([]int32(nil), p.TO...), PO: append([]int32(nil), p.PO...)}
			ds.Pts = append(ds.Pts, dup)
		}
	}
	return ds
}

// applyDelta mutates a dataset the way Table.ApplyBatch does: drop,
// renumber, append.
func applyDelta(ds *Dataset, removes []int, adds []Point) (*Dataset, *Delta) {
	drop := make([]bool, len(ds.Pts))
	for _, r := range removes {
		drop[r] = true
	}
	delta := &Delta{OldToNew: make([]int32, len(ds.Pts)), Added: len(adds)}
	nds := &Dataset{Domains: ds.Domains}
	for i := range ds.Pts {
		if drop[i] {
			delta.OldToNew[i] = -1
			continue
		}
		p := ds.Pts[i]
		p.ID = int32(len(nds.Pts))
		delta.OldToNew[i] = p.ID
		nds.Pts = append(nds.Pts, p)
	}
	for _, p := range adds {
		p.ID = int32(len(nds.Pts))
		nds.Pts = append(nds.Pts, p)
	}
	return nds, delta
}

// TestMaintainSkyline drives randomized add / remove / mixed batches —
// removals biased toward skyline members to force promotion recomputes
// — and asserts the maintained skyline equals the cold recompute after
// every step, full-dimensional and under a subspace projection. A
// second set of cases at N=2000 pins the work done as counts: a batch
// that removes no member costs one probe per add and nothing per table
// row (what makes a maintained memo cheaper than a cold recompute on
// any host), and a removed member costs at most the rows it dominated.
func TestMaintainSkyline(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		ds := maintainDataset(t, 120, seed)
		rng := rand.New(rand.NewSource(seed * 97))
		sky := sortedIDs(NaiveSkylineUnder(ds.Domains, ds.Pts))
		keptTO, keptPO := []int{0}, []int{1}
		subDoms := []*poset.Domain{ds.Domains[1]}
		project := func(pts []Point) []Point {
			out := make([]Point, len(pts))
			for i := range pts {
				out[i] = Point{ID: pts[i].ID, TO: pts[i].TO[:1], PO: pts[i].PO[1:2]}
			}
			return out
		}
		subSky := sortedIDs(NaiveSkylineUnder(subDoms, project(ds.Pts)))

		for step := 0; step < 8; step++ {
			var removes []int
			var adds []Point
			switch step % 3 {
			case 0: // member removals → promotions
				for _, id := range sky {
					if rng.Intn(2) == 0 {
						removes = append(removes, int(id))
					}
				}
			case 1: // adds, some dominating
				for i := 0; i < 5; i++ {
					adds = append(adds, Point{
						TO: []int32{int32(rng.Intn(40)), int32(rng.Intn(40))},
						PO: []int32{int32(rng.Intn(4)), int32(rng.Intn(3))},
					})
				}
			default: // mixed, removals across the whole table
				for i := 0; i < 6 && i < len(ds.Pts); i++ {
					removes = append(removes, rng.Intn(len(ds.Pts)))
				}
				adds = append(adds, Point{TO: []int32{int32(rng.Intn(6)), int32(rng.Intn(6))}, PO: []int32{0, 0}})
			}
			nds, delta := applyDelta(ds, removes, adds)

			got, stats, ok := MaintainSkyline(ds, nds, delta, sky, nil, nil)
			if !ok {
				t.Fatalf("seed %d step %d: maintenance refused (churn %d of %d)",
					seed, step, len(removes)+len(adds), len(ds.Pts))
			}
			want := sortedIDs(NaiveSkylineUnder(nds.Domains, nds.Pts))
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: maintained %v\nwant %v", seed, step, got, want)
			}
			if stats.Promotions < 0 || stats.Probes < len(adds) {
				t.Fatalf("seed %d step %d: implausible stats %+v", seed, step, stats)
			}

			gotSub, _, ok := MaintainSkyline(ds, nds, delta, subSky, keptTO, keptPO)
			if !ok {
				t.Fatalf("seed %d step %d: subspace maintenance refused", seed, step)
			}
			wantSub := sortedIDs(NaiveSkylineUnder(subDoms, project(nds.Pts)))
			if !slices.Equal(gotSub, wantSub) {
				t.Fatalf("seed %d step %d: subspace maintained %v\nwant %v", seed, step, gotSub, wantSub)
			}

			ds, sky, subSky = nds, got, gotSub
		}
	}

	// Anti-correlated TO values: a wide skyline whose members each
	// dominate a small part of the table.
	ds := maintainDataset(t, 2000, 7)
	rng := rand.New(rand.NewSource(7))
	antiTO := func() []int32 {
		x := int32(rng.Intn(1000))
		return []int32{x, 1000 - x + int32(rng.Intn(100))}
	}
	for i := range ds.Pts {
		ds.Pts[i].TO = antiTO()
	}
	sky := sortedIDs(NaiveSkylineUnder(ds.Domains, ds.Pts))
	isMember := make([]bool, len(ds.Pts))
	for _, id := range sky {
		isMember[id] = true
	}
	var adds []Point
	for i := 0; i < 20; i++ {
		adds = append(adds, Point{TO: antiTO(), PO: []int32{int32(rng.Intn(4)), int32(rng.Intn(3))}})
	}
	var nonMembers []int
	for i := 0; len(nonMembers) < 20; i++ {
		if !isMember[i] {
			nonMembers = append(nonMembers, i)
		}
	}
	// The member with the largest dominated region, and that region's
	// size among the non-members (the only rows promotion may probe).
	member, dominated := 0, -1
	for _, id := range sky {
		n := 0
		for i := range ds.Pts {
			if !isMember[i] && DominatesUnder(ds.Domains, &ds.Pts[id], &ds.Pts[i]) {
				n++
			}
		}
		if n > dominated {
			member, dominated = int(id), n
		}
	}
	for _, c := range []struct {
		name      string
		removes   []int
		adds      []Point
		maxProbes int
		exact     bool // Probes == maxProbes and Promotions == 0
	}{
		{"add-only", nil, adds, len(adds), true},
		{"non-member removal", nonMembers, nil, 0, true},
		{"non-member removal with adds", nonMembers, adds, len(adds), true},
		{"one member removal", []int{member}, adds, len(adds) + dominated, false},
	} {
		nds, delta := applyDelta(ds, c.removes, c.adds)
		got, stats, ok := MaintainSkyline(ds, nds, delta, sky, nil, nil)
		if !ok {
			t.Fatalf("N=2000 %s: maintenance refused", c.name)
		}
		if want := sortedIDs(NaiveSkylineUnder(nds.Domains, nds.Pts)); !slices.Equal(got, want) {
			t.Fatalf("N=2000 %s: maintained skyline differs from the cold one", c.name)
		}
		if stats.Probes > c.maxProbes || c.exact && (stats.Probes != c.maxProbes || stats.Promotions != 0) {
			t.Errorf("N=2000 %s: %+v, want Probes %d (exact=%v; the removed member dominated %d rows)",
				c.name, stats, c.maxProbes, c.exact, dominated)
		}
	}
}

// TestMaintainChurnFallback: a batch touching more than the threshold
// refuses maintenance.
func TestMaintainChurnFallback(t *testing.T) {
	ds := maintainDataset(t, 1200, 3)
	sky := sortedIDs(NaiveSkylineUnder(ds.Domains, ds.Pts))
	var removes []int
	for i := 0; i < len(ds.Pts)/5; i++ { // 20% > threshold, > floor
		removes = append(removes, i)
	}
	nds, delta := applyDelta(ds, removes, nil)
	if _, _, ok := MaintainSkyline(ds, nds, delta, sky, nil, nil); ok {
		t.Fatal("20% churn on 1200 rows should refuse maintenance")
	}
	// The floor keeps small batches maintained on any table size.
	nds2, delta2 := applyDelta(ds, []int{0, 1, 2}, nil)
	if _, _, ok := MaintainSkyline(ds, nds2, delta2, sky, nil, nil); !ok {
		t.Fatal("3-row batch must stay maintainable")
	}
}

// TestMaintainPromotionCounts: removing the unique dominator of a
// dominated row must promote exactly that row.
func TestMaintainPromotionCounts(t *testing.T) {
	vee := poset.NewDAG(3) // 0 better than both 1 and 2; 1 ∥ 2
	vee.MustEdge(0, 1)
	vee.MustEdge(0, 2)
	dom, err := poset.NewDomain(vee)
	if err != nil {
		t.Fatal(err)
	}
	ds := &Dataset{
		Domains: []*poset.Domain{dom},
		Pts: []Point{
			{ID: 0, TO: []int32{1}, PO: []int32{1}}, // member, dominates row 1
			{ID: 1, TO: []int32{2}, PO: []int32{1}}, // dominated only by row 0
			{ID: 2, TO: []int32{1}, PO: []int32{2}}, // member (incomparable PO branch)
		},
	}
	sky := sortedIDs(NaiveSkylineUnder(ds.Domains, ds.Pts))
	if !slices.Equal(sky, []int32{0, 2}) {
		t.Fatalf("fixture skyline %v", sky)
	}
	nds, delta := applyDelta(ds, []int{0}, nil)
	got, stats, ok := MaintainSkyline(ds, nds, delta, sky, nil, nil)
	if !ok {
		t.Fatal("maintenance refused")
	}
	if !slices.Equal(got, []int32{0, 1}) { // renumbered: old 1→0, old 2→1
		t.Fatalf("maintained %v, want [0 1]", got)
	}
	if stats.Promotions != 1 {
		t.Fatalf("promotions = %d, want 1", stats.Promotions)
	}
}
