package plan

import (
	"context"
	"testing"

	"repro/internal/core"
)

// fuzzPoint derives one row matching the dataset's shape.
func fuzzPoint(r *fuzzReader, ds *core.Dataset) core.Point {
	p := core.Point{}
	for d := 0; d < ds.NumTO(); d++ {
		p.TO = append(p.TO, int32(r.byte())%8)
	}
	for d := 0; d < ds.NumPO(); d++ {
		p.PO = append(p.PO, int32(r.byte())%int32(ds.Domains[d].Size()))
	}
	return p
}

// FuzzMaintainAgreement is the maintenance differential harness: over a
// byte-derived initial dataset and a random sequence of add / remove /
// mixed batches — removals biased toward current skyline members, so
// member-removal promotion recomputes are exercised — the memo advanced
// across every delta must hold exactly the cold-recompute skyline (set
// equality), for the full entry and a subspace entry alike, and the
// planner must answer identically through the advanced cache. Runs its
// seed corpus under plain `go test`; explore further with
//
//	go test -run='^$' -fuzz=FuzzMaintainAgreement ./internal/plan
func FuzzMaintainAgreement(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 3, 2, 0, 1, 8, 1, 0, 2, 0, 3, 1, 4, 2, 5, 3, 6, 0, 7, 1, 0, 2, 1, 3})
	f.Add([]byte{0, 2, 4, 4, 0, 1, 1, 2, 2, 3, 3, 2, 12, 5, 0, 5, 1, 5, 2, 5, 0, 1, 1, 2, 2, 0, 9, 9, 3, 0, 1, 0, 1})
	f.Add([]byte{1, 0, 16, 2, 1, 0, 3, 1, 7, 7, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 2, 1, 2, 3, 4, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		ds := fuzzDataset(r)
		if err := ds.Validate(); err != nil {
			t.Fatalf("generated invalid dataset: %v", err)
		}

		memo := NewMemoCache()
		runQ := func(ds *core.Dataset, q Query) []int32 {
			env := Env{Cache: memo}
			p, err := New(ds, q, env)
			if err != nil {
				t.Fatalf("New(%+v): %v", q, err)
			}
			res, err := p.Run(context.Background(), ds, env)
			if err != nil {
				t.Fatalf("Run(%+v): %v", q, err)
			}
			return res.SkylineIDs
		}

		// Warm the memo: the full entry, plus one subspace entry when the
		// shape admits a projection.
		runQ(ds, Query{})
		var sub *Subspace
		if ds.NumTO() > 1 || ds.NumPO() > 0 {
			s := &Subspace{}
			for d := 0; d < ds.NumTO(); d++ {
				if r.byte()%2 == 0 {
					s.TO = append(s.TO, d)
				}
			}
			if len(s.TO) == 0 {
				s.TO = []int{0}
			}
			for d := 0; d < ds.NumPO(); d++ {
				if r.byte()%2 == 0 {
					s.PO = append(s.PO, d)
				}
			}
			sub = s
			runQ(ds, Query{Subspace: sub})
		}

		steps := 1 + int(r.byte())%4
		for step := 0; step < steps; step++ {
			var removes []int
			var adds []core.Point
			switch r.byte() % 3 {
			case 0: // removals biased toward members → promotions
				for _, id := range core.NaiveSkylineUnder(ds.Domains, ds.Pts) {
					if r.byte()%2 == 0 {
						removes = append(removes, int(id))
					}
				}
			case 1: // adds only
				na := 1 + int(r.byte())%5
				for i := 0; i < na; i++ {
					adds = append(adds, fuzzPoint(r, ds))
				}
			default: // mixed
				nr := int(r.byte()) % 4
				for i := 0; i < nr && len(ds.Pts) > 0; i++ {
					removes = append(removes, int(r.byte())%len(ds.Pts))
				}
				adds = append(adds, fuzzPoint(r, ds))
			}
			nds, delta := mutateDS(ds, removes, adds)
			memo = memo.Advance(ds, nds, delta)
			ds = nds
			if len(ds.Pts) == 0 {
				// A dataset's dimensionality is derived from its rows, so a
				// fully emptied table ends the sequence: verify the full
				// entry advanced to the empty skyline and stop.
				if ids, _, ok := memo.GetFull(); ok && len(ids) != 0 {
					t.Fatalf("step %d: emptied table but maintained skyline %v", step, ids)
				}
				return
			}

			// Maintained full entry ≡ cold recompute (set equality). An
			// absent entry is a legitimate churn fallback; the planner leg
			// below refills it cold either way.
			want := sorted32(core.NaiveSkylineUnder(ds.Domains, ds.Pts))
			if ids, maint, ok := memo.GetFull(); ok {
				if !maint {
					t.Fatalf("step %d: advanced full entry not flagged maintained", step)
				}
				if !equal32(sorted32(ids), want) {
					t.Fatalf("step %d: maintained full %v != cold %v", step, sorted32(ids), want)
				}
			}
			if got := runQ(ds, Query{}); !equal32(sorted32(got), want) {
				t.Fatalf("step %d: planner answer %v != cold %v", step, sorted32(got), want)
			}

			if sub == nil {
				continue
			}
			wantSub, err := Naive(ds, Query{Subspace: sub})
			if err != nil {
				t.Fatal(err)
			}
			if ids, maint, ok := memo.GetSubspace(SubspaceKey(sub)); ok {
				if step == 0 && !maint {
					// First advance must have carried the warmed entry or
					// dropped it; a non-maintained entry can only appear via a
					// later cold refill.
					t.Fatalf("step %d: advanced subspace entry not flagged maintained", step)
				}
				if !equal32(sorted32(ids), sorted32(wantSub)) {
					t.Fatalf("step %d: maintained subspace %v != cold %v", step, sorted32(ids), sorted32(wantSub))
				}
			}
			if got := runQ(ds, Query{Subspace: sub}); !equal32(sorted32(got), sorted32(wantSub)) {
				t.Fatalf("step %d: planner subspace answer %v != cold %v", step, sorted32(got), sorted32(wantSub))
			}
		}
	})
}
