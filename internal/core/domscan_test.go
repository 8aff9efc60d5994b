package core

import (
	"math/rand"
	"testing"
)

// TestDomScanEdges compares DomScan with scalar dominance where the
// bitmap index has edges: member counts around one accumulator word, a
// TO column on which every member ties (its bins collapse to one cut),
// probes below every member and above every cut, and PO dimensions on
// exact bitmaps (budget 0) and on ordinal bins (closure refused by
// budget 1, or off at −1) — plus the documented Add-after-probe panic.
func TestDomScanEdges(t *testing.T) {
	for _, m := range []int{0, 1, 63, 64, 65} {
		for _, tie := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(m)))
			ds := randomDataset(rng, m+200, 2, 2)
			for i := range ds.Pts {
				p := &ds.Pts[i]
				p.TO[1] = int32(rng.Intn(300)) // enough distinct values to fill the bins
				if tie && i < m {
					p.TO[0] = 3
				}
			}
			probes := append([]Point(nil), ds.Pts...)
			for _, v := range []int32{-1, 1000} {
				for i := range 20 {
					probes = append(probes, Point{TO: []int32{v, v}, PO: ds.Pts[i].PO})
				}
			}
			for _, budget := range []int64{0, 1, -1} {
				scan := domScanWithBudget(ds, m, budget)
				for i := range m {
					scan.Add(ds.Pts[i].TO, ds.Pts[i].PO)
				}
				for pi := range probes {
					row := &probes[pi]
					var want []int32
					for j := range m {
						if DominatesUnder(ds.Domains, &ds.Pts[j], row) {
							want = append(want, int32(j))
						}
					}
					if got := scan.Dominators(row.TO, row.PO); !idsEqual(got, want) {
						t.Fatalf("m=%d tie=%v budget=%d: probe %d dominators %v, scalar %v", m, tie, budget, pi, got, want)
					}
					if got := scan.Any(row.TO, row.PO); got != (len(want) > 0) {
						t.Fatalf("m=%d tie=%v budget=%d: probe %d Any=%v, scalar %v", m, tie, budget, pi, got, want)
					}
				}
				scan.Close()
			}
		}
	}

	// The first probe seals the index; a later Add panics instead of
	// silently missing from the bitmaps.
	t.Run("add-after-probe", func(t *testing.T) {
		ds := randomDataset(rand.New(rand.NewSource(1)), 4, 2, 1)
		scan := NewDomScan(ds.Domains, 2, 4)
		scan.Add(ds.Pts[0].TO, ds.Pts[0].PO)
		_ = scan.Any(ds.Pts[1].TO, ds.Pts[1].PO)
		defer func() {
			if recover() == nil {
				t.Fatal("Add after a probe did not panic")
			}
		}()
		scan.Add(ds.Pts[2].TO, ds.Pts[2].PO)
	})
}
