package exp

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// WriteRows renders measurement rows as an aligned text table, grouped
// by figure, with a TSS-vs-SDC+ speedup column — the "who wins, by what
// factor" summary the reproduction is judged on.
func WriteRows(w io.Writer, rows []Row) {
	byFig := map[string][]Row{}
	var figs []string
	for _, r := range rows {
		if _, ok := byFig[r.Figure]; !ok {
			figs = append(figs, r.Figure)
		}
		byFig[r.Figure] = append(byFig[r.Figure], r)
	}
	sort.Strings(figs)
	for _, fig := range figs {
		fmt.Fprintf(w, "Figure %s\n", fig)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "x\tseries\ttotal(s)\tcpu(s)\tcpu%\tIOs\tskyline\tchecks\tspeedup")
		// Pair rows by X to compute speedups.
		byX := map[string]map[string]Row{}
		var xs []string
		for _, r := range byFig[fig] {
			if _, ok := byX[r.X]; !ok {
				byX[r.X] = map[string]Row{}
				xs = append(xs, r.X)
			}
			byX[r.X][r.Series] = r
		}
		for _, x := range xs {
			pair := byX[x]
			var speedup float64
			if s, ok := pair["SDC+"]; ok {
				if t, ok2 := pair["TSS"]; ok2 && t.TotalSec > 0 {
					speedup = s.TotalSec / t.TotalSec
				}
			}
			for _, series := range []string{"SDC+", "TSS"} {
				r, ok := pair[series]
				if !ok {
					continue
				}
				sp := ""
				if series == "TSS" && speedup > 0 {
					sp = fmt.Sprintf("%.2fx", speedup)
				}
				fmt.Fprintf(tw, "%s\t%s\t%.3f\t%.3f\t%.0f%%\t%d\t%d\t%d\t%s\n",
					r.X, r.Series, r.TotalSec, r.CPUSec, r.CPUShare*100,
					r.IOs, r.Skyline, r.Checks, sp)
			}
			// Non-paired series (ablations) render plainly.
			for series, r := range pair {
				if series == "SDC+" || series == "TSS" {
					continue
				}
				fmt.Fprintf(tw, "%s\t%s\t%.3f\t%.3f\t%.0f%%\t%d\t%d\t%d\t\n",
					r.X, r.Series, r.TotalSec, r.CPUSec, r.CPUShare*100,
					r.IOs, r.Skyline, r.Checks)
			}
		}
		tw.Flush()
		fmt.Fprintln(w)
	}
}

// WriteTableIII renders the paper's parameter grid (Table III) with the
// effective values after scaling.
func WriteTableIII(w io.Writer, scale float64) {
	fmt.Fprintln(w, "Table III — parameters and values")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "parameter\tpaper range\tat this scale")
	fmt.Fprintf(tw, "data cardinality N\t100K, 500K, 1M, 5M, 10M\t%d … %d\n",
		scaled(100_000, scale), scaled(10_000_000, scale))
	fmt.Fprintln(tw, "TO attributes |TO|\t2, 3, 4\tunchanged")
	fmt.Fprintln(tw, "PO attributes |PO|\t1, 2\tunchanged")
	fmt.Fprintln(tw, "DAG height h\t2, 4, 6, 8, 10\tunchanged")
	fmt.Fprintln(tw, "DAG density d\t0.2, 0.4, 0.6, 0.8, 1\tunchanged")
	fmt.Fprintf(tw, "TO domain size\t10000\t%d\n", DefaultTODomain)
	fmt.Fprintln(tw, "IO cost\t5 ms per page\tunchanged")
	tw.Flush()
	fmt.Fprintln(w)
}

// WriteProgress renders the Figure 11 progressiveness curves.
func WriteProgress(w io.Writer, rows []ProgressRow) {
	byFig := map[string][]ProgressRow{}
	var figs []string
	for _, r := range rows {
		if _, ok := byFig[r.Figure]; !ok {
			figs = append(figs, r.Figure)
		}
		byFig[r.Figure] = append(byFig[r.Figure], r)
	}
	sort.Strings(figs)
	for _, fig := range figs {
		fmt.Fprintf(w, "Figure %s (time in seconds to retrieve x%% of the skyline)\n", fig)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "series\t10%\t20%\t30%\t40%\t50%\t60%\t70%\t80%\t90%\t100%")
		for _, series := range []string{"SDC+", "TSS"} {
			vals := map[int]float64{}
			for _, r := range byFig[fig] {
				if r.Series == series {
					vals[r.Pct] = r.Sec
				}
			}
			fmt.Fprintf(tw, "%s", series)
			for pct := 10; pct <= 100; pct += 10 {
				fmt.Fprintf(tw, "\t%.3f", vals[pct])
			}
			fmt.Fprintln(tw)
		}
		tw.Flush()
		fmt.Fprintln(w)
	}
}
