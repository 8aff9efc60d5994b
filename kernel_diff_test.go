package tss

import (
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/exp"
)

// TestKernelMatchesScalarLargeN runs the dominance kernel against the
// scalar reference on paper-shaped N=5K datasets. The byte-driven fuzz
// harness stays under a few dozen points, so it can never reach the
// kernel's large-window machinery — multi-block zone maps and, above
// all, window compaction (which needs ≥ 512 members with half evicted);
// this test covers exactly that regime. It caught a compaction aliasing
// bug that silently dropped the oldest window members.
func TestKernelMatchesScalarLargeN(t *testing.T) {
	for _, dist := range []data.Distribution{data.Independent, data.AntiCorrelated} {
		cfg := exp.StaticDefaults(0.005) // N = 5K
		cfg.Dist = dist
		ds := exp.BuildDataset(cfg)
		want := sortedCopy(core.BNL(ds, core.Options{NoKernel: true}).SkylineIDs)
		for _, v := range []struct {
			name string
			opt  core.Options
		}{
			{"kernel", core.Options{}},
			{"kernel-noclosure", core.Options{ClosureBudget: -1}},
		} {
			got := sortedCopy(core.BNL(ds, v.opt).SkylineIDs)
			if !equalIDs(got, want) {
				t.Errorf("%s/%s: BNL kernel %d ids, scalar reference %d ids",
					dist, v.name, len(got), len(want))
			}
		}
		sfsK := sortedCopy(core.SFS(ds, core.Options{}).SkylineIDs)
		sfsS := sortedCopy(core.SFS(ds, core.Options{NoKernel: true}).SkylineIDs)
		if !equalIDs(sfsK, want) || !equalIDs(sfsS, want) {
			t.Errorf("%s: SFS kernel %d / scalar %d ids, want %d",
				dist, len(sfsK), len(sfsS), len(want))
		}
	}
}

// TestDomScanMatchesScalarLargeN runs the ranking layer's dominator
// scan against scalar dominance at the same paper-shaped N=5K, where the
// skyline is wide enough (≥ 512 members) that collection spans several
// 256-point zone-map blocks. Members are loaded sorted by their first TO
// attribute so block min-corners are tight and zone-map skips actually
// fire, and the first members are loaded twice: every member row is an
// exact duplicate of at least one member, which must never dominate it.
func TestDomScanMatchesScalarLargeN(t *testing.T) {
	for _, dist := range []data.Distribution{data.Independent, data.AntiCorrelated} {
		cfg := exp.StaticDefaults(0.005) // N = 5K
		cfg.Dist = dist
		ds := exp.BuildDataset(cfg)
		sky := core.BNL(ds, core.Options{NoKernel: true}).SkylineIDs
		if len(sky) < 512 {
			t.Fatalf("%s: skyline has %d members, want ≥ 512 for a multi-block scan", dist, len(sky))
		}
		sort.Slice(sky, func(i, j int) bool { return ds.Pts[sky[i]].TO[0] < ds.Pts[sky[j]].TO[0] })
		members := append(append([]int32(nil), sky...), sky[:16]...)
		scan := core.NewDomScan(ds.Domains, ds.NumTO(), len(members))
		for _, m := range members {
			scan.Add(ds.Pts[m].TO, ds.Pts[m].PO)
		}
		for i := range ds.Pts {
			row := &ds.Pts[i]
			var want []int32
			for j, m := range members {
				if core.DominatesUnder(ds.Domains, &ds.Pts[m], row) {
					want = append(want, int32(j))
				}
			}
			if got := scan.Dominators(row.TO, row.PO); !equalIDs(got, want) {
				t.Fatalf("%s: row %d has %d scan dominators, %d scalar", dist, i, len(got), len(want))
			}
			if got := scan.Any(row.TO, row.PO); got != (len(want) > 0) {
				t.Fatalf("%s: row %d Any=%v with %d scalar dominators", dist, i, got, len(want))
			}
		}
		_, before := core.KernelCounters()
		scan.Close()
		if _, after := core.KernelCounters(); after == before {
			t.Errorf("%s: the scan skipped no zone-map block", dist)
		}
	}
}

func sortedCopy(ids []int32) []int32 {
	out := append([]int32(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
