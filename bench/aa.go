package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark itself
// reads: the A/A table's bounds, and the metric lists its tests hold
// the program's output against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

func readBenchmarkFile(root string) (*benchmarkFile, []string, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	names := make([]string, len(bf.Workloads))
	for i, w := range bf.Workloads {
		names[i] = w.Name
	}
	return &bf, names, nil
}

// runAA runs two interleaved sets of n runs of the same build — A1 B1
// A2 B2 …, run i of either set with seed+i — and prints, per
// workload/metric, both set medians, the gap between them, the wider
// quartile spread of the two sets and, for a gated metric, its bound.
// Same code on both sides: whatever gap and spread it shows is the
// benchmark's own noise, which a bound has to clear.
func runAA(e env, root string, selected []*workload, n int, seed int64, seconds, scale float64) error {
	bf, _, err := readBenchmarkFile(root)
	if err != nil {
		return err
	}
	bound := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bound[m.Name] = m.Bound
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload/metric\tmedian A\tmedian B\tgap\tspread\tbound\t")
	for _, w := range selected {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
		}
		var names []string
		for i := 0; i < n; i++ {
			for s := range sets {
				res, err := runWorkload(e, w, seed+int64(i), seconds, scale)
				if err != nil {
					return err
				}
				if !res.Correct {
					return fmt.Errorf("%s: seed %d: %d failed ops: %v", w.name, seed+int64(i), res.Failed, res.Errors)
				}
				names = res.order
				for name, v := range res.Metrics {
					sets[s][name] = append(sets[s][name], v.Value)
				}
			}
		}
		for _, name := range names {
			a, b := sets[0][name], sets[1][name]
			ma, mb := median(a), median(b)
			spread := math.Max(quartileSpread(a), quartileSpread(b))
			limit, verdict := "extra", ""
			if bd, gated := bound[name]; gated {
				limit = fmt.Sprintf("%.0f%%", 100*bd)
				if math.Abs(mb-ma)/ma > bd || spread > bd {
					verdict = "OVER"
				}
			}
			fmt.Fprintf(tw, "%s/%s\t%.4g\t%.4g\t%+.1f%%\t%.1f%%\t%s\t%s\n",
				w.name, name, ma, mb, 100*(mb-ma)/ma, 100*spread, limit, verdict)
		}
	}
	return tw.Flush()
}
