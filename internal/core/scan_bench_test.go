package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/exp"
)

// BenchmarkScanShapes times the serving scan on six N = 10 000 shapes:
// 4 TO, or the paper's 2 TO + 2 PO, each correlated, independent and
// anti-correlated (seed 1). Per shape it reports
//
//   - scan: core.ScanSorted over a prebuilt SFSOrder — the resident-order
//     path every unfiltered, unprojected query takes;
//   - sfs: a cold core.SFS, which sorts its own rows (on a TO-only
//     dataset, after the elimination filter);
//   - bnl: the block-nested-loops baseline.
//
// Run it alone with: go test -run '^$' -bench ScanShapes ./internal/core
func BenchmarkScanShapes(b *testing.B) {
	for _, shape := range []struct{ to, po int }{{4, 0}, {2, 2}} {
		for _, dist := range []data.Distribution{data.Correlated, data.Independent, data.AntiCorrelated} {
			cfg := exp.StaticDefaults(0.01)
			cfg.TO, cfg.PO, cfg.Dist = shape.to, shape.po, dist
			ds := exp.BuildDataset(cfg)
			order := core.SFSOrder(ds)
			sky := len(core.SFS(ds, core.Options{}).SkylineIDs)
			name := fmt.Sprintf("%dto%dpo-%s", shape.to, shape.po, distName(dist))
			for _, run := range []struct {
				algo string
				fn   func() *core.Result
			}{
				{"scan", func() *core.Result { return core.ScanSorted(ds, order, core.Options{}, nil) }},
				{"sfs", func() *core.Result { return core.SFS(ds, core.Options{}) }},
				{"bnl", func() *core.Result { return core.BNL(ds, core.Options{}) }},
			} {
				b.Run(name+"/"+run.algo, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if got := len(run.fn().SkylineIDs); got != sky {
							b.Fatalf("skyline %d, want %d", got, sky)
						}
					}
					b.ReportMetric(float64(sky), "skyline")
				})
			}
		}
	}
}

func distName(d data.Distribution) string {
	switch d {
	case data.Correlated:
		return "corr"
	case data.AntiCorrelated:
		return "anti"
	default:
		return "indep"
	}
}
