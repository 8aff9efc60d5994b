package cluster

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/serve"
)

// TestSortCandidatesSelects: the coordinator's bounded selection keeps
// exactly the first k of a full sort under (score, row values, shard,
// row), on candidates that tie on score and on their values — the PO
// labels sort in another order than their ids — and differ only in
// where they came from.
func TestSortCandidatesSelects(t *testing.T) {
	sc, err := serve.NewSchema([]string{"x"}, []serve.OrderSpec{{Name: "c", Values: []string{"b", "a", "c"}}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 14))
	for trial := range 200 {
		n := rng.IntN(60)
		merged := make([]candidate, n)
		scores := make([]float64, n)
		for i, slot := range rng.Perm(2 * n) { // slot = (shard, row): unique
			if i == n {
				break
			}
			merged[i] = candidate{
				shard: slot % 2,
				row:   serve.SkylineRow{Row: slot / 2, TO: []int64{int64(rng.IntN(2))}},
				po:    []int32{int32(rng.IntN(3))},
			}
			scores[i] = float64(rng.IntN(3))
		}
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		slices.SortFunc(order, func(a, b int) int {
			if c := cmp.Compare(scores[a], scores[b]); c != 0 {
				return c
			}
			if c := compareRows(sc, &merged[a], &merged[b]); c != 0 {
				return c
			}
			if c := cmp.Compare(merged[a].shard, merged[b].shard); c != 0 {
				return c
			}
			return cmp.Compare(merged[a].row.Row, merged[b].row.Row)
		})
		for _, k := range []int{1, 10, n, n + 5} {
			got := sortCandidates(sc, merged, scores, k)
			if len(got) != min(k, n) {
				t.Fatalf("trial %d n=%d k=%d: kept %d candidates", trial, n, k, len(got))
			}
			for i := range got {
				if w := &merged[order[i]]; got[i].shard != w.shard || got[i].row.Row != w.row.Row {
					t.Fatalf("trial %d n=%d k=%d: position %d holds shard %d row %d, full sort has shard %d row %d",
						trial, n, k, i, got[i].shard, got[i].row.Row, w.shard, w.row.Row)
				}
			}
		}
	}
}
