// Quickstart: the paper's flight-reservation example (Figure 1 and
// Table I). Ten tickets with two totally ordered attributes (price,
// stops) and one partially ordered attribute (airline). Two different
// airline preference orders produce two different skylines; the same
// data also answers dynamic queries without rebuilding anything.
package main

import (
	"fmt"

	tss "repro"
)

func main() {
	// The ticket table from Figure 1(a). Airlines: a, b, c, d.
	airline := tss.NewOrder("a", "b", "c", "d").
		Prefer("a", "b"). // the user favours a over b ...
		Prefer("a", "c"). // ... and over c,
		Prefer("b", "d"). // and any airline over d;
		Prefer("c", "d")  // b and c stay incomparable.

	table := tss.NewTable([]string{"price", "stops"}, airline)
	tickets := []struct {
		price, stops int64
		airline      string
	}{
		{1800, 0, "a"}, {2000, 0, "a"}, {1800, 0, "b"}, {1200, 1, "b"}, {1400, 1, "a"},
		{1000, 1, "b"}, {1000, 1, "d"}, {1800, 1, "c"}, {500, 2, "d"}, {1200, 2, "c"},
	}
	for _, tk := range tickets {
		table.MustAdd([]int64{tk.price, tk.stops}, tk.airline)
	}

	fmt.Println("Skyline under the first partial order (a over b,c; all over d):")
	for _, row := range table.Skyline() {
		fmt.Printf("  p%-2d %s\n", row+1, table.Row(row))
	}
	fmt.Println("  (paper Table I: p1, p5, p6, p9, p10)")
	fmt.Println()

	// A second user has opposite tastes: only b is preferred to a.
	// Dynamic queries reuse the prepared structures; only the tiny
	// preference DAG is preprocessed per query.
	dyn := table.PrepareDynamic()
	q := tss.NewOrder("a", "b", "c", "d").Prefer("b", "a")
	res, err := dyn.Query(q)
	if err != nil {
		panic(err)
	}
	fmt.Println("Dynamic skyline under the second partial order (only b over a):")
	for _, row := range res.Rows {
		fmt.Printf("  p%-2d %s\n", row+1, table.Row(row))
	}
	fmt.Println("  (paper Table I: p3, p6, p7, p8, p9, p10)")
	fmt.Println()

	// Algorithms agree; costs differ.
	for _, algo := range []string{"stss", "sdc+", "bbs+", "bnl"} {
		r, err := table.SkylineWith(algo)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-5v skyline=%d  reads=%d  checks=%d  total=%.3fs\n",
			algo, len(r.Rows), r.Stats.PageReads, r.Stats.DomChecks, r.Stats.TotalSeconds())
	}
}
