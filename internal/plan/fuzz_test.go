package plan

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/poset"
)

// fuzzReader decodes a fuzz input byte stream; exhausted input reads as
// zeros, so every byte slice is a valid (if degenerate) workload.
type fuzzReader struct {
	data []byte
	pos  int
}

func (r *fuzzReader) byte() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

// fuzzDataset derives a small mixed TO/PO dataset in table layout
// (ID == index): 1–2 TO columns, 0–2 PO columns with 2–5-value
// forward-edge DAGs, up to 24 heavily colliding rows.
func fuzzDataset(r *fuzzReader) *core.Dataset {
	nTO := 1 + int(r.byte())%2
	nPO := int(r.byte()) % 3
	ds := &core.Dataset{}
	for d := 0; d < nPO; d++ {
		size := 2 + int(r.byte())%4
		dag := poset.NewDAG(size)
		edges := int(r.byte()) % 8
		for e := 0; e < edges; e++ {
			a := int(r.byte()) % size
			b := int(r.byte()) % size
			if a == b {
				continue
			}
			if a > b {
				a, b = b, a
			}
			dag.MustEdge(a, b)
		}
		dom, err := poset.NewDomain(dag)
		if err != nil {
			panic(err) // forward edges only: cycles are impossible
		}
		ds.Domains = append(ds.Domains, dom)
	}
	n := 1 + int(r.byte())%24
	for i := 0; i < n; i++ {
		p := core.Point{ID: int32(i)}
		for d := 0; d < nTO; d++ {
			p.TO = append(p.TO, int32(r.byte())%8)
		}
		for d := 0; d < nPO; d++ {
			p.PO = append(p.PO, int32(r.byte())%int32(ds.Domains[d].Size()))
		}
		ds.Pts = append(ds.Pts, p)
	}
	return ds
}

// fuzzQuery derives a logical query over the dataset's shape. Every
// derived query passes Validate by construction.
func fuzzQuery(r *fuzzReader, ds *core.Dataset) Query {
	q := Query{}
	nTO, nPO := ds.NumTO(), ds.NumPO()

	if r.byte()%2 == 0 { // subspace
		s := &Subspace{}
		for d := 0; d < nTO; d++ {
			if r.byte()%2 == 0 {
				s.TO = append(s.TO, d)
			}
		}
		if len(s.TO) == 0 {
			s.TO = []int{int(r.byte()) % nTO}
		}
		for d := 0; d < nPO; d++ {
			if r.byte()%2 == 0 {
				s.PO = append(s.PO, d)
			}
		}
		q.Subspace = s
	}

	preds := int(r.byte()) % 3
	for i := 0; i < preds; i++ {
		if nPO > 0 && r.byte()%2 == 0 {
			dim := int(r.byte()) % nPO
			size := ds.Domains[dim].Size()
			var in []int32
			for v := 0; v < size; v++ {
				if r.byte()%2 == 0 {
					in = append(in, int32(v))
				}
			}
			if len(in) == 0 {
				in = []int32{int32(r.byte()) % int32(size)}
			}
			q.Where = append(q.Where, Predicate{Kind: POIn, Dim: dim, In: in})
			continue
		}
		pr := Predicate{Kind: TORange, Dim: int(r.byte()) % nTO}
		switch r.byte() % 3 {
		case 0:
			pr.HasHi, pr.Hi = true, int64(r.byte()%8)
		case 1:
			pr.HasLo, pr.Lo = true, int64(r.byte()%8)
		default:
			pr.HasLo, pr.Lo = true, int64(r.byte()%4)
			pr.HasHi, pr.Hi = true, pr.Lo+int64(r.byte()%5)
		}
		q.Where = append(q.Where, pr)
	}

	switch r.byte() % 4 {
	case 1:
		q.TopK = 1 + int(r.byte())%6
	case 2:
		q.TopK = 1 + int(r.byte())%6
		q.Rank = RankDomCount
	case 3:
		q.TopK = 1 + int(r.byte())%6
		q.Rank = RankIdeal
		if r.byte()%2 == 0 {
			q.Ideal = make([]int64, nTO)
			for d := range q.Ideal {
				q.Ideal[d] = int64(r.byte() % 8)
			}
		}
	}
	return q
}

// FuzzPlanAgreement is the planner's differential harness: on any
// byte-derived workload and query, the auto-planned execution and every
// registered algorithm forced through the same plan — plus the forced
// push-down and (when provable) post-filter routes, cold and behind a
// warm full-skyline cache — must return exactly the brute-force
// oracle's rows; fuzzOrdersLeg then repeats the exercise under
// per-request preference DAGs beside a fully warmed table. Runs its
// seed corpus under plain `go test`; explore
// further with
//
//	go test -run='^$' -fuzz=FuzzPlanAgreement ./internal/plan
func FuzzPlanAgreement(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 3, 2, 0, 1, 8, 1, 0, 2, 0, 3, 1, 4, 2, 5, 3, 6, 0, 7, 1})
	f.Add([]byte{0, 2, 4, 4, 0, 1, 1, 2, 2, 3, 3, 2, 12, 5, 0, 5, 1, 5, 2, 5, 0, 1, 1, 2, 2, 0, 9, 9})
	f.Add([]byte{1, 0, 16, 2, 1, 0, 3, 1, 7, 7, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6})
	// Long enough to reach fuzzOrdersLeg with non-zero bytes: 2 TO + 2 PO
	// columns, a subspace, two predicates, inverted query DAGs.
	f.Add([]byte{1, 2, 2, 3, 0, 1, 1, 2, 0, 3, 3, 5, 0, 2, 1, 3, 2, 4, 0, 1, 11,
		3, 1, 0, 2, 5, 2, 1, 1, 4, 0, 3, 6, 1, 2, 0, 7, 0, 1, 2, 2, 3, 1, 5, 1, 1, 0, 4, 3, 2, 3, 0,
		0, 1, 0, 1, 1, 2, 1, 0, 0, 1, 2, 0, 1, 1, 3, 2,
		1, 5, 3, 0, 2, 1, 3, 2, 0, 1, 1, 4, 0, 2, 3, 1, 2, 0, 3, 3, 5, 1, 2, 4, 2, 1, 0, 1, 3, 2, 5, 1, 0, 2})
	// Eight rows around the ideal point (5,5) fuzzOrdersLeg then draws:
	// the |v−ideal| skyline differs from the table's own in rows and size.
	f.Add([]byte{1, 1, 1, 1, 0, 1, 7, 0, 0, 0, 5, 5, 0, 4, 6, 1, 6, 4, 2, 7, 7, 0, 1, 6, 1, 6, 1, 2, 3, 3, 0,
		1, 0, 0, 0, 1, 0, 2, 2, 5, 1, 5, 0, 1, 1, 1, 3, 2, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		ds := fuzzDataset(r)
		if err := ds.Validate(); err != nil {
			t.Fatalf("generated invalid dataset: %v", err)
		}
		q := fuzzQuery(r, ds)
		want, err := Naive(ds, q)
		if err != nil {
			t.Fatalf("oracle rejected a generated query %+v: %v", q, err)
		}
		wantSorted := sorted32(want)

		// The emission-order contract of unranked top-k is algorithm-
		// dependent: check membership + size instead of the exact set.
		unranked := q.TopK > 0 && q.Rank == RankNone
		fullSky, err := Naive(ds, Query{Subspace: q.Subspace, Where: q.Where})
		if err != nil {
			t.Fatal(err)
		}
		member := make(map[int32]bool, len(fullSky))
		for _, id := range fullSky {
			member[id] = true
		}

		check := func(label string, ids []int32, err error) {
			if err != nil {
				t.Fatalf("%s: %v (query %+v)", label, err, q)
			}
			if unranked {
				wantLen := q.TopK
				if len(fullSky) < wantLen {
					wantLen = len(fullSky)
				}
				if len(ids) != wantLen {
					t.Fatalf("%s: %d rows, want %d (query %+v)", label, len(ids), wantLen, q)
				}
				for _, id := range ids {
					if !member[id] {
						t.Fatalf("%s: row %d outside the skyline (query %+v)", label, id, q)
					}
				}
				return
			}
			if !equal32(sorted32(ids), wantSorted) {
				t.Fatalf("%s: got %v want %v (query %+v, n=%d)", label, sorted32(ids), wantSorted, q, len(ds.Pts))
			}
		}

		run := func(label string, fq Query, env Env) {
			p, err := New(ds, fq, env)
			if err != nil {
				t.Fatalf("%s: New: %v (query %+v)", label, err, fq)
			}
			res, err := p.Run(context.Background(), ds, env)
			var ids []int32
			if res != nil {
				ids = res.SkylineIDs
			}
			check(label, ids, err)

			// Streamed leg: the same plan delivered through RunStream must
			// produce the same rows, and the emitted sequence must equal
			// the final result order.
			sp, err := New(ds, fq, env)
			if err != nil {
				t.Fatalf("%s stream: New: %v (query %+v)", label, err, fq)
			}
			var emitted []int32
			sres, serr := sp.RunStream(context.Background(), ds, env, func(r StreamRow) error {
				emitted = append(emitted, r.ID)
				return nil
			})
			var sids []int32
			if sres != nil {
				sids = sres.SkylineIDs
			}
			check(label+" streamed", sids, serr)
			if serr == nil && !equal32(emitted, sids) {
				t.Fatalf("%s streamed: emissions %v, result %v (query %+v)", label, emitted, sids, fq)
			}
		}

		env := Env{Learned: NewLearned()}
		run("auto", q, env)
		{
			// Kernel ablation: the scalar/interval reference path must
			// plan and answer identically.
			fq := q
			fq.Hints.NoKernel = true
			run("nokernel", fq, env)
		}
		for _, a := range core.Algorithms() {
			fq := q
			fq.Hints.Algorithm = a.Name()
			run("forced "+a.Name(), fq, env)
		}
		if len(q.Where) > 0 {
			fq := q
			fq.Hints.Route = RoutePushdown
			run("forced pushdown", fq, env)
			if am, _ := allAntiMonotone(ds, q); am && q.Subspace == nil {
				fq.Hints.Route = RoutePostFilter
				run("forced postfilter cold", fq, env)
			}
		}
		// Cache routing: warm the full skyline, then re-run the query so
		// eligible plans route through the cache.
		if q.Subspace == nil {
			cenv := Env{Learned: NewLearned(), Cache: &memCache{}}
			p, err := New(ds, Query{}, cenv)
			if err != nil {
				t.Fatalf("cache warm-up: New: %v", err)
			}
			if _, err := p.Run(context.Background(), ds, cenv); err != nil {
				t.Fatalf("cache warm-up: %v", err)
			}
			run("cached", q, cenv)
		}
		fuzzOrdersLeg(t, r, ds, q)
	})
}
