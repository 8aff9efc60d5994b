// Hotels: a static skyline over a set-valued attribute — one of the
// partially ordered domains the paper's introduction motivates. Each
// hotel has a price and a distance to the beach (both minimised) and a
// set of amenities. A hotel's amenity set is preferred to another's iff
// it is a strict superset: the 2^5 subsets of five amenities form a
// containment-lattice DAG, exactly the domain family the paper's
// evaluation generates.
//
// The skyline answers: "which hotels are worth considering no matter
// how a guest weighs money, walking and amenities?"
package main

import (
	"fmt"
	"math/rand"
	"strings"

	tss "repro"
)

var amenities = []string{"wifi", "pool", "gym", "spa", "parking"}

// setLabel renders an amenity bitmask as a stable label.
func setLabel(mask int) string {
	if mask == 0 {
		return "{}"
	}
	var parts []string
	for b, name := range amenities {
		if mask&(1<<b) != 0 {
			parts = append(parts, name)
		}
	}
	return "{" + strings.Join(parts, ",") + "}"
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

func main() {
	// Build the containment order: supersets are preferred, so an edge
	// runs from S∪{x} down to S for every amenity x ∉ S.
	n := 1 << len(amenities)
	labels := make([]string, n)
	for mask := 0; mask < n; mask++ {
		labels[mask] = setLabel(mask)
	}
	order := tss.NewOrder(labels...)
	for mask := 0; mask < n; mask++ {
		for b := range amenities {
			if mask&(1<<b) == 0 {
				order.Prefer(setLabel(mask|1<<b), setLabel(mask))
			}
		}
	}

	// 2000 synthetic hotels: anti-correlated price vs distance (cheap
	// hotels are far from the beach), random amenity sets.
	rng := rand.New(rand.NewSource(42))
	table := tss.NewTable([]string{"price", "distance"}, order)
	for i := 0; i < 2000; i++ {
		base := rng.Intn(300)
		price := int64(100 + base + rng.Intn(80))
		distance := int64(400 - base + rng.Intn(80))
		mask := rng.Intn(n)
		table.MustAdd([]int64{price, distance}, setLabel(mask))
	}

	res := skyline(table, "stss")
	fmt.Printf("%d hotels, %d in the skyline\n\n", table.Len(), len(res.Rows))

	fmt.Println("First ten skyline hotels (in discovery order):")
	for i, row := range res.Rows {
		if i == 10 {
			break
		}
		fmt.Printf("  %s\n", table.Row(row))
	}

	// The amenity order is why the skyline is larger than a plain
	// price/distance skyline: an expensive far hotel survives if it
	// offers an amenity set nobody else covers. Rebuild the same TO
	// data without the PO column for comparison.
	plain := tss.NewTable([]string{"price", "distance"})
	rng = rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		base := rng.Intn(300)
		price := int64(100 + base + rng.Intn(80))
		distance := int64(400 - base + rng.Intn(80))
		rng.Intn(n) // keep the stream aligned
		plain.MustAdd([]int64{price, distance})
	}
	plainRes := skyline(plain, "stss")
	fmt.Printf("\nWithout the amenity attribute the skyline shrinks to %d hotels.\n", len(plainRes.Rows))

	fmt.Printf("\nsTSS cost: %d page reads, %d dominance checks, %.3fs total (5ms/IO)\n",
		res.Stats.PageReads, res.Stats.DomChecks, res.Stats.TotalSeconds())
	sdc := skyline(table, "sdc+")
	fmt.Printf("SDC+ cost: %d page reads, %d dominance checks, %.3fs total\n",
		sdc.Stats.PageReads, sdc.Stats.DomChecks, sdc.Stats.TotalSeconds())
}
