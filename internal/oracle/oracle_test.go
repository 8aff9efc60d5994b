package oracle

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/poset"
)

// sixRows is a 2-TO table worked by hand: the skyline is rows 0 and 1,
// row 1 dominates rows 2, 4 and 5, row 0 dominates rows 3 and 4, and
// rows 2 and 3 form the second layer.
func sixRows() []core.Point {
	to := [][]int32{{3, 1}, {1, 3}, {2, 4}, {4, 2}, {4, 4}, {2, 5}}
	pts := make([]core.Point, len(to))
	for i, v := range to {
		pts[i] = core.Point{ID: int32(i), TO: v}
	}
	return pts
}

func TestRankByHand(t *testing.T) {
	rows := sixRows()
	sky := core.NaiveSkylineUnder(nil, rows)
	if !slices.Equal(sky, []int32{0, 1}) {
		t.Fatalf("skyline %v, want [0 1]", sky)
	}
	for _, c := range []struct {
		rank  string
		k     int
		ideal []int64
		want  []int32
	}{
		{"domcount", 2, nil, []int32{1, 0}}, // 3 rows against 2
		{"domcount", 1, nil, []int32{1}},
		{"dpidp", 2, nil, []int32{1, 0}},           // 1 + 1 + 1/2 against 1 + 1/2
		{"ideal", 2, nil, []int32{0, 1}},           // 4 against 4: ties by id
		{"ideal", 2, []int64{1, 3}, []int32{1, 0}}, // 0 against 4
		{"layer", 1, nil, []int32{0, 1}},
		{"layer", 2, nil, []int32{0, 1, 2, 3}},
		{"layer", 9, nil, []int32{0, 1, 2, 3, 4, 5}},
	} {
		got, err := Rank(c.rank, nil, rows, sky, c.k, c.ideal)
		if err != nil || !slices.Equal(got, c.want) {
			t.Errorf("%s k=%d ideal=%v: %v (%v), want %v", c.rank, c.k, c.ideal, got, err, c.want)
		}
	}
	if _, err := Rank("nope", nil, rows, sky, 1, nil); err == nil {
		t.Error("an unknown rank was accepted")
	}
}

func TestDPIDPHistsByHand(t *testing.T) {
	rows := sixRows()
	hists := DPIDPHists(nil, rows[:2], rows)
	want := []map[int32]int64{{1: 1, 2: 1}, {1: 2, 2: 1}}
	for i := range want {
		if !maps.Equal(hists[i], want[i]) {
			t.Errorf("member %d: %v, want %v", i, hists[i], want[i])
		}
	}
	if h := DPIDPHists(nil, rows[4:5], rows); h[0] != nil {
		t.Errorf("a member that dominates nothing has histogram %v", h[0])
	}
}

// TestIdealScoresPODepth: a PO value scores its depth in the preference
// DAG, so on the chain 0 → 1 → 2 row 0 scores 1 + 2 and row 1 2 + 0.
func TestIdealScoresPODepth(t *testing.T) {
	dag := poset.NewDAG(3)
	dag.MustEdge(0, 1)
	dag.MustEdge(1, 2)
	doms := []*poset.Domain{poset.MustDomain(dag)}
	rows := []core.Point{{ID: 0, TO: []int32{1}, PO: []int32{2}}, {ID: 1, TO: []int32{2}, PO: []int32{0}}}
	got, err := Rank("ideal", doms, rows, []int32{0, 1}, 2, nil)
	if err != nil || !slices.Equal(got, []int32{1, 0}) {
		t.Fatalf("ideal over a PO column: %v (%v), want [1 0]", got, err)
	}
}

func TestIdealPoints(t *testing.T) {
	pts := []core.Point{{ID: 7, TO: []int32{5, 1}, PO: []int32{2}}}
	got := IdealPoints(pts, []int64{3, 3})
	if p := got[0]; p.ID != 7 || !slices.Equal(p.TO, []int32{2, 2}) || !slices.Equal(p.PO, []int32{2}) {
		t.Fatalf("around (3,3): %+v", p)
	}
	if p := IdealPoints(pts, nil)[0]; !slices.Equal(p.TO, []int32{5, 1}) {
		t.Fatalf("around the origin: %+v", p)
	}
	if !slices.Equal(pts[0].TO, []int32{5, 1}) {
		t.Fatal("the input was written")
	}
}
