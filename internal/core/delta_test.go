package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/poset"
)

// applyDeltaToDataset mirrors the table layer's ApplyBatch at the core
// level: drop, renumber, append.
func applyDeltaToDataset(ds *Dataset, removes []int, adds []Point) (*Dataset, *Delta) {
	drop := make([]bool, len(ds.Pts))
	for _, r := range removes {
		drop[r] = true
	}
	delta := &Delta{OldToNew: make([]int32, len(ds.Pts)), Added: len(adds)}
	nds := &Dataset{Domains: ds.Domains}
	for i := range ds.Pts {
		if drop[i] {
			delta.OldToNew[i] = -1
			continue
		}
		p := ds.Pts[i]
		p.ID = int32(len(nds.Pts))
		delta.OldToNew[i] = p.ID
		nds.Pts = append(nds.Pts, p)
	}
	for _, p := range adds {
		p.ID = int32(len(nds.Pts))
		nds.Pts = append(nds.Pts, p)
	}
	return nds, delta
}

func randomPointFor(rng *rand.Rand, ds *Dataset, nTO int) Point {
	p := Point{}
	for d := 0; d < nTO; d++ {
		p.TO = append(p.TO, int32(rng.Intn(6)))
	}
	for d := range ds.Domains {
		p.PO = append(p.PO, int32(rng.Intn(ds.Domains[d].Size())))
	}
	return p
}

// TestApplyBatchMatchesRebuild is the incremental-maintenance property:
// a DynamicDB maintained through a chain of random batches answers
// every query class exactly like a freshly rebuilt one (and both match
// the naive oracle), while the pre-batch database keeps answering for
// its own row set — snapshot isolation. Half the runs use node capacity
// 3, so the group trees have inner nodes and the copy-on-write insert,
// delete and condense paths run at depth, as they do on large tables.
func TestApplyBatchMatchesRebuild(t *testing.T) {
	prop := func(seed int64, nRaw uint16, toRaw, poRaw uint8, deep bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%40) + 2
		nTO := int(toRaw%3) + 1
		nPO := int(poRaw%2) + 1
		ds := randomDataset(rng, n, nTO, nPO)
		var opt Options
		if deep {
			opt.Capacity = 3
		}
		db := NewDynamicDB(ds, opt)

		for batch := 0; batch < 4; batch++ {
			oldDS, oldDB := ds, db
			// Random batch: each row removed with p=1/4, plus 0..5 adds.
			var removes []int
			for i := range ds.Pts {
				if rng.Intn(4) == 0 {
					removes = append(removes, i)
				}
			}
			var adds []Point
			for k := rng.Intn(6); k > 0; k-- {
				adds = append(adds, randomPointFor(rng, ds, nTO))
			}
			var delta *Delta
			ds, delta = applyDeltaToDataset(ds, removes, adds)
			nd, err := db.ApplyBatch(ds, delta)
			if err != nil {
				t.Logf("seed=%d batch=%d: ApplyBatch: %v", seed, batch, err)
				return false
			}
			db = nd

			domains := make([]*poset.Domain, nPO)
			for d := 0; d < nPO; d++ {
				domains[d] = poset.MustDomain(randomPODomainDAG(
					rng, ds.Domains[d].Size(), rng.Float64()*0.6))
			}
			want := NaiveSkylineUnder(domains, ds.Pts)
			for _, opt := range []Options{
				{}, {UseMemTree: true}, {PrecomputedLocal: true},
				{UseMemTree: true, PrecomputedLocal: true, StabOnly: true},
				{PackedRoots: true},
			} {
				res, err := db.QueryTSS(domains, opt)
				if err != nil {
					t.Log(err)
					return false
				}
				if !sameIDSet(res.SkylineIDs, want) {
					t.Logf("seed=%d batch=%d opt=%+v: incremental = %v, want %v",
						seed, batch, opt, res.SkylineIDs, want)
					return false
				}
			}
			// Fully dynamic queries resolve rows through the same
			// stable-id indirection.
			if len(ds.Pts) > 0 {
				q := make([]int32, nTO)
				for d := range q {
					q[d] = int32(rng.Intn(6))
				}
				res, err := db.QueryTSSFull(q, domains, Options{UseMemTree: true})
				if err != nil {
					t.Log(err)
					return false
				}
				if !sameIDSet(res.SkylineIDs, FullyDynamicNaive(ds, q, domains)) {
					t.Logf("seed=%d batch=%d: fully dynamic diverged", seed, batch)
					return false
				}
			}
			// The superseded database still answers for its own rows.
			oldWant := NaiveSkylineUnder(domains, oldDS.Pts)
			oldRes, err := oldDB.QueryTSS(domains, Options{UseMemTree: true})
			if err != nil {
				t.Log(err)
				return false
			}
			if !sameIDSet(oldRes.SkylineIDs, oldWant) {
				t.Logf("seed=%d batch=%d: superseded snapshot perturbed", seed, batch)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestApplyBatchCompacts: heavy delete/add churn must not bloat the
// stable-id space without bound — the compaction fallback rebuilds.
func TestApplyBatchCompacts(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ds := randomDataset(rng, 30, 2, 1)
	db := NewDynamicDB(ds, Options{})
	for round := 0; round < 20; round++ {
		// Remove ~half the rows, add the same number back.
		var removes []int
		for i := range ds.Pts {
			if i%2 == 0 {
				removes = append(removes, i)
			}
		}
		adds := make([]Point, len(removes))
		for i := range adds {
			adds[i] = randomPointFor(rng, ds, 2)
		}
		var delta *Delta
		ds, delta = applyDeltaToDataset(ds, removes, adds)
		nd, err := db.ApplyBatch(ds, delta)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		db = nd
		if space, live := db.stableSpace(), len(ds.Pts); space > 2*live+compactionSlack {
			t.Fatalf("round %d: stable space %d for %d live rows — compaction never ran", round, space, live)
		}
	}
}

// TestApplyBatchRejectsBadDelta: structural mismatches error instead of
// corrupting the derived database.
func TestApplyBatchRejectsBadDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ds := randomDataset(rng, 10, 2, 1)
	db := NewDynamicDB(ds, Options{})
	if _, err := db.ApplyBatch(ds, &Delta{OldToNew: make([]int32, 3)}); err == nil {
		t.Fatal("short OldToNew accepted")
	}
	other := &Dataset{Domains: nil}
	if _, err := db.ApplyBatch(other, &Delta{OldToNew: make([]int32, len(ds.Pts))}); err == nil {
		t.Fatal("domain-count mismatch accepted")
	}
}
