// Command tssbench regenerates the tables and figures of the paper's
// experimental evaluation (§VI). Each figure is reproduced with the
// paper's parameter sweep, scaled by -scale (1.0 = the paper's exact
// data cardinalities; the default keeps a full run laptop-sized).
//
// Usage:
//
//	tssbench -fig 7            # Figure 7 (static, total time vs N)
//	tssbench -fig 11           # Figure 11 (progressiveness)
//	tssbench -fig ablation     # the §IV-B / §V-B optimisation ablations
//	tssbench -fig all -scale 0.05
//
// Output is a text table per sub-figure, in the paper's simulated-I/O
// cost model, with a TSS-vs-SDC+ speedup column. Wall-clock numbers for
// the serving system come from `bash bench/run.sh`, not from here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/exp"
)

// validFigures is the -fig vocabulary, as the flag help and the
// unknown-figure error print it.
const validFigures = "7..14, ablation, table3, verify or all"

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: "+validFigures)
	scale := flag.Float64("scale", 0.02, "fraction of the paper's data cardinality (1.0 = full)")
	flag.Parse()

	start := time.Now()
	if err := run(os.Stdout, *fig, *scale); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "done in %v\n", time.Since(start).Round(time.Millisecond))
}

// run dispatches one figure (or "all") to the harness, writing reports
// to w.
func run(w io.Writer, fig string, scale float64) error {
	runOne := func(name string) error {
		switch name {
		case "7":
			exp.WriteRows(w, exp.Figure7(scale))
		case "8":
			exp.WriteRows(w, exp.Figure8(scale))
		case "9":
			exp.WriteRows(w, exp.Figure9(scale))
		case "10":
			exp.WriteRows(w, exp.Figure10(scale))
		case "11":
			exp.WriteProgress(w, exp.Figure11(scale))
		case "12":
			exp.WriteRows(w, exp.Figure12(scale))
		case "13":
			exp.WriteRows(w, exp.Figure13(scale))
		case "14":
			exp.WriteRows(w, exp.Figure14(scale))
		case "ablation":
			exp.WriteRows(w, exp.Ablations(scale))
		case "table3":
			exp.WriteTableIII(w, scale)
		case "verify":
			if err := exp.VerifyAgreement(scale); err != nil {
				return fmt.Errorf("verification FAILED: %w", err)
			}
			fmt.Fprintln(w, "all algorithms agree")
		default:
			return fmt.Errorf("unknown figure %q (valid: %s)", name, validFigures)
		}
		return nil
	}
	if fig == "all" {
		for _, name := range []string{"7", "8", "9", "10", "11", "12", "13", "14", "ablation"} {
			fmt.Fprintf(os.Stderr, "running figure %s (scale %.3g)...\n", name, scale)
			if err := runOne(name); err != nil {
				return err
			}
		}
		return nil
	}
	return runOne(fig)
}
