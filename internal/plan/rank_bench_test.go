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
	sc := &ScoreContext{DS: ds, Query: &Query{}}
	sc.KeptTO, sc.KeptPO = resolveSubspace(nil, ds.NumTO(), ds.NumPO())
	members := memberPoints(ds, sky)
	var hists []map[int32]int64
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
		for _, c := range h {
			pairs += c
		}
	}
	b.ReportMetric(float64(pairs), "pairs/op")
}
