// Topk: pay-as-you-go skyline consumption. Because sTSS is optimally
// progressive (precedence + exactness), a consumer that only wants the
// first few skyline results pays only the traversal needed to certify
// them — the rest of the index is never touched. This example asks for
// the first 5 skyline restaurants out of 50 000 and compares the work
// done against a full enumeration.
package main

import (
	"fmt"
	"math/rand"

	tss "repro"
)

var cuisines = []string{"thai", "italian", "mexican", "sushi", "bistro", "diner", "ramen", "tapas"}

func main() {
	// A diner prefers some cuisines: sushi and ramen over diner food,
	// everything over fast "bistro" (say). Unrelated cuisines stay
	// incomparable, which is exactly what a partial order expresses.
	pref := tss.NewOrder(cuisines...).
		Prefer("sushi", "diner").
		Prefer("ramen", "diner").
		Prefer("thai", "bistro").
		Prefer("sushi", "bistro").
		Prefer("italian", "bistro")

	table := tss.NewTable([]string{"price", "wait_min"}, pref)
	rng := rand.New(rand.NewSource(2024))
	for i := 0; i < 50_000; i++ {
		base := rng.Intn(80)
		price := int64(10 + base + rng.Intn(20))
		wait := int64(95 - base + rng.Intn(20))
		table.MustAdd([]int64{price, wait}, cuisines[rng.Intn(len(cuisines))])
	}

	fmt.Println("first 5 skyline restaurants (streamed):")
	got := 0
	table.EachSkyline(func(row int) bool {
		fmt.Printf("  %s\n", table.Row(row))
		got++
		return got < 5
	})

	full, err := table.SkylineWith("stss")
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nfull skyline: %d restaurants, %d page reads, %d dominance checks\n",
		len(full.Rows), full.Stats.PageReads, full.Stats.DomChecks)
	fmt.Println("the streamed prefix above stopped after certifying 5 —")
	fmt.Println("its cost is a fraction of the full run (see TestCursorTopKCostsLess).")
}
