package plan

import (
	"context"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
)

// BenchmarkDomScanDPIDP times one cold dp-idp scan: dpidpHists over
// the skyline of the paper's §VI-B default shape (exp.StaticDefaults)
// at N=10 000, members in id order as the ranked query loads them. It
// also reports checks/op, the scan's exact dominance verifications,
// against pairs/op, the dominating (member, row) pairs it finds; both
// are counts that do not depend on the host.
//
//	go test -run '^$' -bench DomScanDPIDP ./internal/plan
func BenchmarkDomScanDPIDP(b *testing.B) {
	cfg := exp.StaticDefaults(1)
	cfg.N = 10_000
	ds := exp.BuildDataset(cfg)
	sky := slices.Sorted(slices.Values(core.SFS(ds, core.Options{}).SkylineIDs))
	sc := &scoreContext{ds: ds, query: &Query{}}
	sc.keptTO, sc.keptPO = resolveSubspace(nil, ds.NumTO(), ds.NumPO())
	members := memberPoints(ds, sky)
	var hists []KHist
	before, _ := core.KernelCounters()
	b.ResetTimer()
	for range b.N {
		var err error
		if hists, err = dpidpHists(context.Background(), sc, members); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	after, _ := core.KernelCounters()
	b.ReportMetric(float64(after-before)/float64(b.N), "checks/op")
	pairs := int64(0)
	for _, h := range hists {
		for _, c := range h.Counts {
			pairs += c
		}
	}
	b.ReportMetric(float64(pairs), "pairs/op")
}

// BenchmarkCombinePartials times the coordinator's dp-idp combine: the
// skyline of the BenchmarkDomScanDPIDP table scored against each half
// of its rows, as two shards would score it, then merged run by run.
//
//	go test -run '^$' -bench CombinePartials ./internal/plan
func BenchmarkCombinePartials(b *testing.B) {
	cfg := exp.StaticDefaults(1)
	cfg.N = 10_000
	ds := exp.BuildDataset(cfg)
	cands := memberPoints(ds, core.SFS(ds, core.Options{}).SkylineIDs)
	halves := [2]*core.Dataset{{Domains: ds.Domains}, {Domains: ds.Domains}}
	for i, pt := range ds.Pts {
		h := halves[i%2]
		pt.ID = int32(len(h.Pts))
		h.Pts = append(h.Pts, pt)
	}
	shards := make([]Partials, len(halves))
	runs := 0
	for s, h := range halves {
		var err error
		if shards[s], err = RankPartials(context.Background(), h, Query{}, "dpidp", cands); err != nil {
			b.Fatal(err)
		}
		for _, hist := range shards[s].Hists {
			runs += len(hist.Ks)
		}
	}
	b.ResetTimer()
	for range b.N {
		if _, _, err := CombinePartials(RankDPIDP, shards, len(cands)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(runs), "runs/op")
}
