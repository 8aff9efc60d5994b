package plan

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/poset"
)

// fuzzOrders derives one fresh preference domain per PO column over the
// dataset's own value sets: random edges, all oriented low→high or all
// high→low per column, so a query DAG may agree with the table's order,
// invert it or ignore it, and is acyclic by construction.
func fuzzOrders(r *fuzzReader, ds *core.Dataset) []*poset.Domain {
	orders := make([]*poset.Domain, ds.NumPO())
	for d := range orders {
		size := ds.Domains[d].Size()
		dag := poset.NewDAG(size)
		down := r.byte()%2 == 1
		for e := int(r.byte()) % 8; e > 0; e-- {
			a, b := int(r.byte())%size, int(r.byte())%size
			if a == b {
				continue
			}
			if (a > b) != down {
				a, b = b, a
			}
			dag.MustEdge(a, b)
		}
		dom, err := poset.NewDomain(dag)
		if err != nil {
			panic(err) // one direction per column: cycles are impossible
		}
		orders[d] = dom
	}
	return orders
}

// fuzzOrdersLeg is FuzzPlanAgreement's per-request-DAG leg. The table
// side is made as tempting as it gets — a warm memo (full, subspace and
// score-index entries under the table's own orders) and a resident sTSS
// index — so any leak of table-scoped state into a request-scoped
// question is a wrong answer or a wrong explain. Random Orders then run
// every query shape through New → Run/RunStream — handed the table's own
// dataset and Env, as every caller does — against the brute-force oracle
// under *those* domains (and the ideal-point transform once without
// Orders, the other request-scoped dominance); the table's entries and
// its learned full-skyline fraction must be
// untouched afterwards, the same DAG twice must hit the memo, and after
// a mutation it must miss and still answer right. Last, the metamorphic
// identity: q under the table's own orders, passed as Orders, is q.
func fuzzOrdersLeg(t *testing.T, r *fuzzReader, ds *core.Dataset, q Query) {
	ctx := context.Background()
	memo := NewMemoCache()
	ix := core.BuildSTSSIndex(ds, core.Options{})
	learned := NewLearned()
	tenv := Env{Learned: learned, Cache: memo, STSSIndex: func() (*core.STSSIndex, bool) { return ix, true }}
	exec := func(label string, ds *core.Dataset, q Query, tenv Env) ([]int32, *Explain) {
		t.Helper()
		p, err := New(ds, q, tenv)
		if err != nil {
			t.Fatalf("%s: New: %v (query %+v)", label, err, q)
		}
		res, err := p.Run(ctx, ds, tenv)
		if err != nil {
			t.Fatalf("%s: Run: %v (query %+v)", label, err, q)
		}
		sp, err := New(ds, q, tenv)
		if err != nil {
			t.Fatalf("%s streamed: New: %v", label, err)
		}
		var emitted []int32
		sres, err := sp.RunStream(ctx, ds, tenv, func(row StreamRow) error {
			emitted = append(emitted, row.ID)
			return nil
		})
		if err != nil {
			t.Fatalf("%s streamed: %v (query %+v)", label, err, q)
		}
		if !equal32(emitted, sres.SkylineIDs) {
			t.Fatalf("%s streamed: emissions %v, result %v", label, emitted, sres.SkylineIDs)
		}
		if q.TopK == 0 || q.Rank != RankNone { // unranked top-k: any K members, per run
			if !equal32(sorted32(sres.SkylineIDs), sorted32(res.SkylineIDs)) {
				t.Fatalf("%s: streamed %v, buffered %v (query %+v)", label, sres.SkylineIDs, res.SkylineIDs, q)
			}
		}
		for _, ex := range []*Explain{&p.Explain, &sp.Explain} {
			if q.Orders != nil && (ex.CursorIndex == "resident" || ex.RankedFrom == "index" || ex.Maintained) {
				t.Fatalf("%s: table-scoped state answered a request-scoped query: %+v", label, ex)
			}
		}
		return res.SkylineIDs, &p.Explain
	}
	// against checks ids against the oracle's answer for q over ds.
	against := func(label string, ds *core.Dataset, q Query, ids []int32) {
		t.Helper()
		want, err := Naive(ds, q)
		if err != nil {
			t.Fatalf("%s: oracle rejected %+v: %v", label, q, err)
		}
		if q.TopK > 0 && q.Rank == RankNone {
			base := q
			base.TopK = 0
			sky, err := Naive(ds, base)
			if err != nil {
				t.Fatal(err)
			}
			member := make(map[int32]bool, len(sky))
			for _, id := range sky {
				member[id] = true
			}
			if len(ids) != len(want) {
				t.Fatalf("%s: %d rows, want %d (query %+v)", label, len(ids), len(want), q)
			}
			for _, id := range ids {
				if !member[id] {
					t.Fatalf("%s: row %d outside the skyline (query %+v)", label, id, q)
				}
			}
			return
		}
		if !equal32(sorted32(ids), sorted32(want)) {
			t.Fatalf("%s: got %v want %v (query %+v, n=%d)", label, sorted32(ids), sorted32(want), q, len(ds.Pts))
		}
	}

	// Warm every piece of table-scoped derived state.
	exec("warm full", ds, Query{}, tenv)
	exec("warm score index", ds, Query{TopK: 1, Rank: RankDPIDP}, tenv)
	if q.Subspace != nil {
		exec("warm subspace", ds, Query{Subspace: q.Subspace}, tenv)
	}
	fullBefore, _, _ := memo.GetFull()
	fracBefore, _ := learned.SkylineFrac(FullVariant)
	idxBefore, _ := memo.GetScoreIndex()
	var subBefore []int32
	if q.Subspace != nil {
		subBefore, _, _ = memo.GetSubspace(SubspaceKey(q.Subspace))
	}

	orders := fuzzOrders(r, ds)
	k := 1 + int(r.byte())%6
	ideal := make([]int64, ds.NumTO())
	fw := make([]float64, ds.NumTO())
	for d := range ideal {
		ideal[d] = int64(r.byte() % 8)
		fw[d] = float64(r.byte()%3) / 8 // dyadic, Σ ≤ 1/2: every dot product is exact
	}
	shapes := map[string]Query{
		"full":            {},
		"where":           {Where: q.Where},
		"subspace":        {Subspace: q.Subspace},
		"where+subspace":  {Where: q.Where, Subspace: q.Subspace},
		"topk":            {TopK: k, Where: q.Where},
		"fweights":        {FWeights: fw, Subspace: q.Subspace},
		"ideal-transform": {Ideal: ideal, Where: q.Where, Subspace: q.Subspace},
		"ideal-topk":      {Ideal: ideal, TopK: k},
	}
	for _, name := range RankerNames() {
		rk, _ := LookupRanker(name)
		sq := Query{TopK: k, Rank: Rank(rk.Name()), Subspace: q.Subspace}
		if _, ok := rk.(IdealConsumer); ok && r.byte()%2 == 0 {
			sq.Ideal = ideal
		}
		shapes["rank-"+rk.Name()] = sq
	}
	ids, _ := exec("ideal-transform alone", ds, shapes["ideal-transform"], tenv)
	against("ideal-transform alone", ds, shapes["ideal-transform"], ids)
	ids, _ = exec("ideal alone", ds, Query{Ideal: ideal}, tenv)
	against("ideal alone", ds, Query{Ideal: ideal}, ids)
	for name, sq := range shapes {
		sq.Orders = orders
		ids, ex := exec("orders "+name, ds, sq, tenv)
		against("orders "+name, ds, sq, ids)
		if sq.Rank != RankNone && ex.RankedFrom == "" {
			t.Fatalf("orders %s: ranked query reports no score provenance: %+v", name, ex)
		}
	}

	// The table's own entries are what they were, the learned store saw
	// nothing, and a query under the table's orders still answers from them.
	if full, _, _ := memo.GetFull(); !equal32(full, fullBefore) {
		t.Fatalf("orders queries rewrote the table's full entry: %v → %v", fullBefore, full)
	}
	if idx, _ := memo.GetScoreIndex(); idx != idxBefore {
		t.Fatal("orders queries replaced the table's score index")
	}
	if q.Subspace != nil {
		if sub, _, _ := memo.GetSubspace(SubspaceKey(q.Subspace)); !equal32(sub, subBefore) {
			t.Fatalf("orders queries rewrote the table's subspace entry: %v → %v", subBefore, sub)
		}
	}
	if frac, _ := learned.SkylineFrac(FullVariant); frac != fracBefore {
		t.Fatalf("request-scoped queries moved the table's full-skyline fraction: %v → %v", fracBefore, frac)
	}
	if st := learned.Export(); len(st.Variants) > 2 { // full, and the warmed subspace
		t.Fatalf("learned skyline fractions grew a key per DAG: %+v", st.Variants)
	}
	if ids, ex := exec("own after orders", ds, Query{}, tenv); !ex.CacheHit {
		t.Fatal("the table's own full query lost its memo entry")
	} else {
		against("own after orders", ds, Query{}, ids)
	}

	// §V-B: the same DAG — rebuilt from scratch — is a memo hit; across a
	// mutation its entry dies with the snapshot and the answer is right.
	again := make([]*poset.Domain, len(orders))
	for d, dom := range orders {
		var err error
		if again[d], err = poset.NewDomain(dom.DAG().Clone()); err != nil {
			t.Fatal(err)
		}
	}
	if _, ex := exec("orders repeat", ds, Query{Orders: again}, tenv); !ex.CacheHit {
		t.Fatalf("the same DAG twice missed the memo: %+v", ex)
	}
	nds, delta := mutateDS(ds, []int{int(r.byte()) % len(ds.Pts)}, []core.Point{fuzzPoint(r, ds)})
	nix := core.BuildSTSSIndex(nds, core.Options{})
	nenv := Env{Learned: learned, Cache: memo.Advance(ds, nds, delta), STSSIndex: func() (*core.STSSIndex, bool) { return nix, true }}
	var ex *Explain
	ids, ex = exec("orders after batch", nds, Query{Orders: again}, nenv)
	if ex.CacheHit {
		t.Fatal("an orders entry survived the mutation")
	}
	against("orders after batch", nds, Query{Orders: again}, ids)

	// Metamorphic: the table's own orders passed as Orders change nothing.
	own := q
	own.Orders = ds.Domains
	ids, _ = exec("own orders as Orders", ds, own, tenv)
	against("own orders as Orders", ds, q, ids)
}
