package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/poset"
	"repro/internal/serve"
)

// The oracle shares no algorithm with the program: no registered
// skyline algorithm, no planner, no ranker. It sorts by coordinate sum
// and filters through a window with core.DominatesUnder, the pairwise
// definition of dominance; scores are brute force.

// oracleSkyline returns the indexes into pts of the skyline under
// domains, ascending.
func oracleSkyline(domains []*poset.Domain, pts []core.Point) []int {
	order := make([]int, len(pts))
	sum := make([]int64, len(pts))
	for i := range pts {
		order[i] = i
		for _, v := range pts[i].TO {
			sum[i] += int64(v)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return sum[order[a]] < sum[order[b]] })
	// A dominator never has a larger coordinate sum, but rows that tie
	// on every TO value arrive in either order, so the window evicts.
	var window []int
	for _, i := range order {
		dominated := false
		for _, w := range window {
			if core.DominatesUnder(domains, &pts[w], &pts[i]) {
				dominated = true
				break
			}
		}
		if dominated {
			continue
		}
		kept := window[:0]
		for _, w := range window {
			if !core.DominatesUnder(domains, &pts[i], &pts[w]) {
				kept = append(kept, w)
			}
		}
		window = append(kept, i)
	}
	sort.Ints(window)
	return window
}

// oracleDPIDP scores every skyline member: each row dominated by
// exactly k members gives 1/k to each of them.
func oracleDPIDP(domains []*poset.Domain, pts []core.Point, sky []int) map[int]float64 {
	score := make(map[int]float64, len(sky))
	for _, m := range sky {
		score[m] = 0
	}
	var dom []int
	for i := range pts {
		dom = dom[:0]
		for _, m := range sky {
			if m != i && core.DominatesUnder(domains, &pts[m], &pts[i]) {
				dom = append(dom, m)
			}
		}
		for _, m := range dom {
			score[m] += 1 / float64(len(dom))
		}
	}
	return score
}

// rowKey renders a row's values; answers are compared as multisets of
// these, never by row index (indexes are snapshot- and shard-scoped).
func rowKey(to []int64, po []string) string {
	var b strings.Builder
	for _, v := range to {
		fmt.Fprintf(&b, "%d,", v)
	}
	b.WriteByte('|')
	b.WriteString(strings.Join(po, ","))
	return b.String()
}

func pointKey(p *core.Point) string {
	r := rowSpec(p)
	return rowKey(r.TO, r.PO)
}

func multiset(rows []serve.SkylineRow) map[string]int {
	m := make(map[string]int, len(rows))
	for _, r := range rows {
		m[rowKey(r.TO, r.PO)]++
	}
	return m
}

func pointMultiset(pts []core.Point, idx []int) map[string]int {
	m := make(map[string]int, len(idx))
	for _, i := range idx {
		m[pointKey(&pts[i])]++
	}
	return m
}

func sameMultiset(got, want map[string]int) error {
	for k, n := range want {
		if got[k] != n {
			return fmt.Errorf("row %s: got %d, want %d", k, got[k], n)
		}
	}
	for k, n := range got {
		if want[k] == 0 {
			return fmt.Errorf("row %s: got %d, want 0", k, n)
		}
	}
	return nil
}

// checkStatic verifies one answer per op class of a cycle against the
// oracle on t's rows: full skylines and constrained skylines as value
// multisets, dp-idp top-k by oracle score, unranked first-K as K
// distinct skyline members — a prefix of the full stream when prefix
// says both come cold from one cursor. A cycle with a buffered and a
// streamed full read has streamed ≡ buffered checked by this: both are
// held against the same oracle answer.
func checkStatic(c *client, t *table, ops []op, prefix bool) []error {
	doms, pts := t.ds.Domains, t.ds.Pts
	sky := oracleSkyline(doms, pts)
	want := pointMultiset(pts, sky)

	answers := map[string]*answer{}
	var errs []error
	check := func(class string, err error) {
		if err != nil {
			err = fmt.Errorf("class %s: %w", class, err)
		}
		errs = append(errs, err)
	}
	for i := range ops {
		o := &ops[i]
		a, err := c.fetch(o)
		if err != nil {
			check(o.class, err)
			continue
		}
		answers[o.class] = a
		switch o.class {
		case "full", "ttfull", "raw":
			if a.count != len(a.rows) {
				err = fmt.Errorf("count %d but %d rows", a.count, len(a.rows))
			} else {
				err = sameMultiset(multiset(a.rows), want)
			}
		case "constrained":
			var kept []core.Point
			for _, p := range pts {
				if int64(p.TO[0]) <= t.bound {
					kept = append(kept, p)
				}
			}
			err = sameMultiset(multiset(a.rows), pointMultiset(kept, oracleSkyline(doms, kept)))
		case "topk":
			err = checkTopK(a.rows, doms, pts, sky)
		case "firstk":
			err = checkFirstK(a.rows, want, len(sky))
		default:
			err = fmt.Errorf("no oracle check for this class")
		}
		check(o.class, err)
	}

	// A replayed or merged stream has another order than a cold one.
	if fk, full := answers["firstk"], answers["ttfull"]; prefix && fk != nil && full != nil {
		err := error(nil)
		if len(full.rows) < len(fk.rows) {
			err = fmt.Errorf("first-K has %d rows, the full stream %d", len(fk.rows), len(full.rows))
		}
		for i := 0; err == nil && i < len(fk.rows); i++ {
			if rowKey(fk.rows[i].TO, fk.rows[i].PO) != rowKey(full.rows[i].TO, full.rows[i].PO) {
				err = fmt.Errorf("first-K row %d is not full-stream row %d", i, i)
			}
		}
		check("firstk (prefix of full stream)", err)
	}
	return errs
}

// checkStreamed verifies streamed ≡ buffered for a cycle that has no
// stream of its own: the buffered full read o, sent as a stream.
func checkStreamed(c *client, t *table, o op) error {
	o.stream, o.path = true, o.path+"?stream=1"
	a, err := c.fetch(&o)
	if err == nil {
		err = sameMultiset(multiset(a.rows), pointMultiset(t.ds.Pts, oracleSkyline(t.ds.Domains, t.ds.Pts)))
	}
	if err != nil {
		err = fmt.Errorf("full (streamed): %w", err)
	}
	return err
}

// checkTopK verifies a dp-idp top-k answer by score: K skyline members
// in non-increasing oracle score whose scores are the K best. Ties may
// break either way, so rows are compared through their scores.
func checkTopK(rows []serve.SkylineRow, doms []*poset.Domain, pts []core.Point, sky []int) error {
	score := oracleDPIDP(doms, pts, sky)
	byKey := map[string]float64{}
	best := make([]float64, 0, len(sky))
	for _, m := range sky {
		byKey[pointKey(&pts[m])] = score[m] // duplicate rows dominate the same rows
		best = append(best, score[m])
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(best)))
	k := topK
	if len(sky) < k {
		k = len(sky)
	}
	if len(rows) != k {
		return fmt.Errorf("%d rows, want %d", len(rows), k)
	}
	for i, r := range rows {
		s, ok := byKey[rowKey(r.TO, r.PO)]
		if !ok {
			return fmt.Errorf("row %d is not a skyline member", i)
		}
		if math.Abs(s-best[i]) > 1e-9*math.Max(1, best[i]) {
			return fmt.Errorf("row %d has score %v, rank %d scores %v", i, s, i, best[i])
		}
	}
	return nil
}

func checkFirstK(rows []serve.SkylineRow, sky map[string]int, skySize int) error {
	k := topK
	if skySize < k {
		k = skySize
	}
	if len(rows) != k {
		return fmt.Errorf("%d rows, want %d", len(rows), k)
	}
	got := multiset(rows)
	for key, n := range got {
		if n > sky[key] {
			return fmt.Errorf("row %s: %d times in the answer, %d in the skyline", key, n, sky[key])
		}
	}
	return nil
}

// checkDynamic verifies one per-request-orders query on table d under
// a DAG set the measured phase never sent.
func checkDynamic(c *client, d *table, seed int64) []error {
	rng := rand.New(rand.NewSource(seed*97 + 3))
	orders, dags := queryOrders(rng, d.ds.Domains)
	doms := compile(dags)
	o := query("dynamic", serve.QueryRequest{Orders: orders})
	o.path = "/tables/d/query"
	a, err := c.fetch(&o)
	if err == nil {
		err = sameMultiset(multiset(a.rows), pointMultiset(d.ds.Pts, oracleSkyline(doms, d.ds.Pts)))
	}
	if err != nil {
		err = fmt.Errorf("class dynamic: %w", err)
	}
	return []error{err}
}
