// Progressive: reproduces the shape of the paper's Figure 11 on a small
// synthetic workload. sTSS is optimally progressive — every skyline
// point is output the moment it is examined — while SDC+ can only
// release a stratum's points once the whole stratum is exhausted, so
// its results arrive in a few large bursts. The table below shows the
// virtual time (CPU + 5 ms per page IO) at which each decile of the
// skyline became available.
package main

import (
	"fmt"
	"math/rand"
	"strings"

	tss "repro"
)

func main() {
	// A two-level category hierarchy as the PO attribute: 3 families,
	// 12 models, family preferred to its models; plus two
	// anti-correlated TO attributes.
	var labels []string
	for f := 0; f < 3; f++ {
		labels = append(labels, fmt.Sprintf("family%d", f))
	}
	for m := 0; m < 12; m++ {
		labels = append(labels, fmt.Sprintf("model%d", m))
	}
	order := tss.NewOrder(labels...)
	for m := 0; m < 12; m++ {
		order.Prefer(fmt.Sprintf("family%d", m%3), fmt.Sprintf("model%d", m))
	}
	// Extra cross links make some models partially covered, which is
	// what forces SDC+ into multiple strata.
	order.Prefer("model0", "model3")
	order.Prefer("model1", "model4")

	rng := rand.New(rand.NewSource(99))
	table := tss.NewTable([]string{"x", "y"}, order)
	for i := 0; i < 8000; i++ {
		base := rng.Intn(900)
		table.MustAdd(
			[]int64{int64(50 + base + rng.Intn(100)), int64(1000 - base + rng.Intn(100))},
			labels[rng.Intn(len(labels))],
		)
	}

	stss := skyline(table, "stss")
	sdc := skyline(table, "sdc+")
	fmt.Printf("skyline size: %d (both methods agree: %v)\n\n",
		len(stss.Rows), len(stss.Rows) == len(sdc.Rows))

	fmt.Println("virtual seconds until x% of the skyline is available:")
	fmt.Println("  %   sTSS     SDC+")
	for pct := 10; pct <= 100; pct += 10 {
		fmt.Printf("%4d  %7.3f  %7.3f\n", pct, decile(stss, pct), decile(sdc, pct))
	}

	fmt.Println()
	fmt.Println("emission profile (each column is 2% of the run; '#' marks arrivals):")
	fmt.Printf("  sTSS  %s\n", sparkline(stss))
	fmt.Printf("  SDC+  %s\n", sparkline(sdc))
}

// skyline runs one registered algorithm; the names used here handle PO
// columns, so an error is a bug in the example.
func skyline(t *tss.Table, algo string) *tss.SkylineResult {
	res, err := t.SkylineWith(algo)
	if err != nil {
		panic(err)
	}
	return res
}

func decile(r *tss.SkylineResult, pct int) float64 {
	n := len(r.EmissionSeconds)
	if n == 0 {
		return 0
	}
	k := (n*pct + 99) / 100
	if k < 1 {
		k = 1
	}
	return r.EmissionSeconds[k-1]
}

// sparkline buckets emissions into 50 time slots across the run.
func sparkline(r *tss.SkylineResult) string {
	if len(r.EmissionSeconds) == 0 {
		return ""
	}
	end := r.Stats.TotalSeconds()
	if end == 0 {
		end = 1
	}
	buckets := make([]int, 50)
	for _, t := range r.EmissionSeconds {
		b := int(t / end * 49.999)
		if b > 49 {
			b = 49
		}
		buckets[b]++
	}
	var sb strings.Builder
	for _, c := range buckets {
		if c == 0 {
			sb.WriteByte('.')
		} else {
			sb.WriteByte('#')
		}
	}
	return sb.String()
}
