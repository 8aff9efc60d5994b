package tss

import (
	"fmt"
	"slices"
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
// bug that silently dropped the oldest window members. The 4-TO legs
// cover SFS's TO-only paths — the elimination filter before its sort and
// the kernel's hot list — with the anti-correlated skyline past one
// 256-member block.
func TestKernelMatchesScalarLargeN(t *testing.T) {
	for _, shape := range []struct {
		to, po int
		dist   data.Distribution
		minSky int
	}{
		{2, 2, data.Independent, 0},
		{2, 2, data.AntiCorrelated, 0},
		{4, 0, data.Correlated, 0},
		{4, 0, data.Independent, 0},
		{4, 0, data.AntiCorrelated, 257},
	} {
		cfg := exp.StaticDefaults(0.005) // N = 5K
		cfg.TO, cfg.PO, cfg.Dist = shape.to, shape.po, shape.dist
		dist := fmt.Sprintf("%dTO+%dPO/%s", shape.to, shape.po, shape.dist)
		ds := exp.BuildDataset(cfg)
		want := slices.Sorted(slices.Values(core.BNL(ds, core.Options{NoKernel: true}).SkylineIDs))
		if len(want) < shape.minSky {
			t.Fatalf("%s: skyline has %d members, want ≥ %d", dist, len(want), shape.minSky)
		}
		for _, v := range []struct {
			name string
			opt  core.Options
		}{
			{"kernel", core.Options{}},
			{"kernel-noclosure", core.Options{ClosureBudget: -1}},
			{"kernel-rows-budget", core.Options{ClosureBudget: 16 << 10}},
		} {
			got := slices.Sorted(slices.Values(core.BNL(ds, v.opt).SkylineIDs))
			if !slices.Equal(got, want) {
				t.Errorf("%s/%s: BNL kernel %d ids, scalar reference %d ids",
					dist, v.name, len(got), len(want))
			}
			if sfs := slices.Sorted(slices.Values(core.SFS(ds, v.opt).SkylineIDs)); !slices.Equal(sfs, want) {
				t.Errorf("%s/%s: SFS kernel %d ids, scalar reference %d ids",
					dist, v.name, len(sfs), len(want))
			}
		}
		sfsK := slices.Sorted(slices.Values(core.SFS(ds, core.Options{}).SkylineIDs))
		sfsS := slices.Sorted(slices.Values(core.SFS(ds, core.Options{NoKernel: true}).SkylineIDs))
		if !slices.Equal(sfsK, want) || !slices.Equal(sfsS, want) {
			t.Errorf("%s: SFS kernel %d / scalar %d ids, want %d",
				dist, len(sfsK), len(sfsS), len(want))
		}
	}
}

// TestDomScanMatchesScalarLargeN runs the ranking layer's dominator
// scan against scalar dominance at the same paper-shaped N=5K, where the
// skyline is wide enough (≥ 512 members) that every bitmap spans many
// words and the TO dimensions fill all 64 quantile bins. Members are
// loaded in id order, as the rankings load them, and the first 16 are
// loaded twice: every member row is an exact duplicate of at least one
// member, which must never dominate it. The bitmaps must also do their
// job: the exact verifications of the Dominators pass are bounded by
// twice the dominating pairs it finds plus one per row.
func TestDomScanMatchesScalarLargeN(t *testing.T) {
	for _, dist := range []data.Distribution{data.Independent, data.AntiCorrelated} {
		cfg := exp.StaticDefaults(0.005) // N = 5K
		cfg.Dist = dist
		ds := exp.BuildDataset(cfg)
		sky := slices.Sorted(slices.Values(core.BNL(ds, core.Options{NoKernel: true}).SkylineIDs))
		if len(sky) < 512 {
			t.Fatalf("%s: skyline has %d members, want ≥ 512 for a multi-word scan", dist, len(sky))
		}
		members := append(append([]int32(nil), sky...), sky[:16]...)
		scan := core.NewDomScan(ds.Domains, ds.NumTO(), len(members))
		for _, m := range members {
			scan.Add(ds.Pts[m].TO, ds.Pts[m].PO)
		}
		dominated := make([]bool, len(ds.Pts))
		before, _ := core.KernelCounters()
		pairs := 0
		for i := range ds.Pts {
			row := &ds.Pts[i]
			var want []int32
			for j, m := range members {
				if core.DominatesUnder(ds.Domains, &ds.Pts[m], row) {
					want = append(want, int32(j))
				}
			}
			if got := scan.Dominators(row.TO, row.PO); !slices.Equal(got, want) {
				t.Fatalf("%s: row %d has %d scan dominators, %d scalar", dist, i, len(got), len(want))
			}
			pairs += len(want)
			dominated[i] = len(want) > 0
		}
		scan.Close()
		after, _ := core.KernelCounters()
		if tests, bound := after-before, int64(2*pairs+len(ds.Pts)); tests > bound {
			t.Errorf("%s: %d exact verifications for %d dominating pairs over %d rows, want ≤ %d",
				dist, tests, pairs, len(ds.Pts), bound)
		}
		for i := range ds.Pts {
			row := &ds.Pts[i]
			if got := scan.Any(row.TO, row.PO); got != dominated[i] {
				t.Fatalf("%s: row %d Any=%v, scalar dominated=%v", dist, i, got, dominated[i])
			}
		}
		scan.Close()
		t.Logf("%s: %d members, %d pairs, %d verifications", dist, len(members), pairs, after-before)
	}
}

// BenchmarkSFSPaperShape is one cold SFS run on the dominance kernel
// over the paper's §VI-B shape at N = 10 000 (2 TO + 2 PO, seed 1).
func BenchmarkSFSPaperShape(b *testing.B) {
	ds := exp.BuildDataset(exp.StaticDefaults(0.01))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(core.SFS(ds, core.Options{}).SkylineIDs) == 0 {
			b.Fatal("empty skyline")
		}
	}
}

// BenchmarkMaintainBatch is one MaintainSkyline call over the paper's
// shape at N = 2000: a batch removes 8 rows outside the skyline and
// adds 8 fresh rows drawn from the same distribution, so the call seeds
// the surviving skyline and offers the adds.
func BenchmarkMaintainBatch(b *testing.B) {
	cfg := exp.StaticDefaults(0.002)
	cfg.N += 8
	all := exp.BuildDataset(cfg)
	old := &core.Dataset{Domains: all.Domains, Pts: all.Pts[:len(all.Pts)-8]}
	sky := core.SFS(old, core.Options{}).SkylineIDs
	member := make([]bool, len(old.Pts))
	for _, id := range sky {
		member[id] = true
	}
	delta := &core.Delta{OldToNew: make([]int32, len(old.Pts)), Added: 8}
	next := &core.Dataset{Domains: old.Domains}
	removed := 0
	for i, p := range old.Pts {
		if !member[i] && removed < 8 {
			delta.OldToNew[i] = -1
			removed++
			continue
		}
		p.ID = int32(len(next.Pts))
		delta.OldToNew[i] = p.ID
		next.Pts = append(next.Pts, p)
	}
	for _, p := range all.Pts[len(old.Pts):] {
		p.ID = int32(len(next.Pts))
		next.Pts = append(next.Pts, p)
	}
	want := slices.Sorted(slices.Values(core.SFS(next, core.Options{}).SkylineIDs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, _, ok := core.MaintainSkyline(old, next, delta, sky, nil, nil)
		if !ok || len(got) != len(want) {
			b.Fatalf("maintained %d ids (ok=%v), want %d", len(got), ok, len(want))
		}
	}
}
