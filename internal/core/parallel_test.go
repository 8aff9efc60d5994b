package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

var parallelPs = []int{1, 2, 4, 7}

// TestParallelMatchesNaive is the executor's central property: for
// randomized datasets (mixed TO/PO or TO-only, heavy duplicates), every
// algorithm, baselines included, behind the partition-and-merge
// executor returns exactly the naive skyline for every shard count.
func TestParallelMatchesNaive(t *testing.T) {
	prop := func(seed int64, nRaw uint16, toRaw, poRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%80) + 1
		nTO := int(toRaw%3) + 1
		nPO := int(poRaw % 3)
		ds := randomDataset(rng, n, nTO, nPO)
		want := ds.NaiveSkyline()
		for _, algo := range append(Algorithms(), Baselines()...) {
			for _, p := range parallelPs {
				res, err := Parallel(algo).Run(ds, Options{Parallelism: p})
				if err != nil {
					t.Logf("seed=%d: parallel(%s) P=%d: %v", seed, algo.Name(), p, err)
					return false
				}
				if !sameIDSet(res.SkylineIDs, want) {
					t.Logf("seed=%d n=%d TO=%d PO=%d: parallel(%s) P=%d = %v, want %v",
						seed, n, nTO, nPO, algo.Name(), p, res.SkylineIDs, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestParallelEdgeCases pins the empty and singleton datasets for every
// algorithm and shard count.
func TestParallelEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	empty := randomDataset(rng, 1, 2, 1)
	empty.Pts = nil
	single := randomDataset(rng, 1, 2, 1)
	for _, algo := range append(Algorithms(), Baselines()...) {
		for _, p := range parallelPs {
			res, err := Parallel(algo).Run(empty, Options{Parallelism: p})
			if err != nil || len(res.SkylineIDs) != 0 {
				t.Errorf("parallel(%s) P=%d on empty: ids=%v err=%v",
					algo.Name(), p, res.SkylineIDs, err)
			}
			res, err = Parallel(algo).Run(single, Options{Parallelism: p})
			if err != nil || len(res.SkylineIDs) != 1 || res.SkylineIDs[0] != single.Pts[0].ID {
				t.Errorf("parallel(%s) P=%d on singleton: ids=%v err=%v",
					algo.Name(), p, res.SkylineIDs, err)
			}
		}
	}
}

// TestParallelDuplicateIDs: id-ambiguous datasets are refused (the
// merge cannot resolve local skyline ids back to points).
func TestParallelDuplicateIDs(t *testing.T) {
	ds := &Dataset{Pts: []Point{
		{ID: 3, TO: []int32{1, 2}},
		{ID: 3, TO: []int32{2, 1}},
	}}
	// Rejected for every shard count, so acceptance does not depend on
	// how Parallelism resolves against the host's CPU count.
	for _, p := range []int{1, 2} {
		if _, err := Parallel(MustLookup("sfs")).Run(ds, Options{Parallelism: p}); err == nil {
			t.Errorf("duplicate point IDs must be rejected (P=%d)", p)
		}
	}
}

// TestParallelMetrics: shard metrics are kept and the aggregate
// counters cover them plus the merge pass.
func TestParallelMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ds := randomDataset(rng, 200, 2, 1)
	res, err := Parallel(MustLookup("stss")).Run(ds, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics.Shards) != 4 {
		t.Fatalf("Shards = %d, want 4", len(res.Metrics.Shards))
	}
	var shardChecks, shardReads int64
	for _, m := range res.Metrics.Shards {
		shardChecks += m.DomChecks
		shardReads += m.ReadIOs
	}
	if res.Metrics.DomChecks < shardChecks {
		t.Errorf("aggregate DomChecks %d < shard sum %d", res.Metrics.DomChecks, shardChecks)
	}
	if res.Metrics.ReadIOs != shardReads {
		t.Errorf("aggregate ReadIOs %d != shard sum %d", res.Metrics.ReadIOs, shardReads)
	}
	if len(res.Metrics.Emissions) != len(res.SkylineIDs) {
		t.Errorf("%d emissions for %d skyline points",
			len(res.Metrics.Emissions), len(res.SkylineIDs))
	}
	// The single-shard fallback keeps the same contract: per-shard
	// detail and one emission stamp per skyline point.
	res1, err := Parallel(MustLookup("stss")).Run(ds, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Metrics.Shards) != 1 {
		t.Errorf("P=1 Shards = %d, want 1", len(res1.Metrics.Shards))
	}
	if len(res1.Metrics.Emissions) != len(res1.SkylineIDs) {
		t.Errorf("P=1: %d emissions for %d skyline points",
			len(res1.Metrics.Emissions), len(res1.SkylineIDs))
	}
}

// TestParallelCapabilities: the wrapper inherits the inner algorithm's
// capabilities.
func TestParallelCapabilities(t *testing.T) {
	p := Parallel(MustLookup("stss"))
	if caps := p.Capabilities(); !caps.UsesDyadic {
		t.Errorf("parallel(stss) caps = %+v, want UsesDyadic", caps)
	}
	if p.Name() != "parallel(stss)" {
		t.Errorf("name = %q", p.Name())
	}
	if caps := Parallel(MustLookup("sfs")).Capabilities(); caps.UsesDyadic {
		t.Error("parallel(sfs) must not claim the dyadic index")
	}
}
