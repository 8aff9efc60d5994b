package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/serve"
)

// applyDelta replays one batch with the server's own rule — removals
// by current row index first, survivors renumbered in order, adds
// appended — and returns the next row set with the delta that maps old
// row indexes to new ones.
func applyDelta(ds *core.Dataset, remove []int, add []core.Point) (*core.Dataset, *core.Delta) {
	drop := make(map[int]bool, len(remove))
	for _, r := range remove {
		drop[r] = true
	}
	next := &core.Dataset{Domains: ds.Domains, Pts: make([]core.Point, 0, len(ds.Pts)+len(add))}
	delta := &core.Delta{OldToNew: make([]int32, len(ds.Pts)), Added: len(add)}
	for i, p := range ds.Pts {
		if drop[i] {
			delta.OldToNew[i] = -1
			continue
		}
		p.ID = int32(len(next.Pts))
		delta.OldToNew[i] = p.ID
		next.Pts = append(next.Pts, p)
	}
	for _, p := range add {
		p.ID = int32(len(next.Pts))
		next.Pts = append(next.Pts, p)
	}
	return next, delta
}

// writer is serve-churn's mutating client. It keeps a client-side
// mirror of the table — its own batches replayed with applyDelta — which
// is the state the oracle checks the final answers on. One cycle is
// three batches, each followed by `raw`, a full read right after the
// ack:
//
//	[add 4]                                  class write
//	[remove 8 non-members + add 4]           class write
//	[remove 1 skyline member + add 1]        class write_promote
//
// so the row count is the same after every cycle. Removing a skyline
// member makes the server promote the rows it alone dominated, which
// costs two orders of magnitude more than the other batches; it is a
// class of its own, or the write median would flip between two modes.
// Membership comes from the previous raw answer, decoded off the timer.
//
// The rows of the write class are fresh: drawn from the table's own
// distribution, so about a third of them enter the skyline and some
// demote members. Only rows outside the skyline leave, so the skyline
// grows as the phase goes on (from 710 to about 767 members in 30 cycles
// at N=2000); the growth is the same from run to run, what differs with
// the seed is one percent either way.
//
// What removing a member costs depends on the member (how much it alone
// dominates), so the members to remove come from a fixed pool spread
// over the initial skyline, about as many as a phase has cycles: every
// run works through the same members, and the seed decides where in the
// pool it starts. The row added with a removal is the member the
// previous cycle removed, which keeps the pool in the table.
type writer struct {
	base    *table
	seed    int64
	rng     *rand.Rand
	mirror  *core.Dataset
	members []int       // row indexes of the current snapshot's skyline; nil = unknown
	pool    []string    // value keys of the members to remove, in turn
	next    int         // position in pool
	parked  *core.Point // the skyline member the last write_promote removed
	raw     op
}

// writerPool is the number of distinct skyline members a writer
// removes before it starts over.
const writerPool = 24

// writerStep is one batch of the cycle: its class, how many rows
// outside and inside the skyline it removes, how many rows it adds.
type writerStep struct {
	class                     string
	nonMembers, members, adds int
}

var writerSteps = []writerStep{
	{"write", 0, 0, 4},
	{"write", 8, 0, 4},
	{"write_promote", 0, 1, 1},
}

func newWriter(t *table, seed int64) *writer {
	w := &writer{base: t, seed: seed, raw: query("raw", serve.QueryRequest{Explain: true})}
	sky := oracleSkyline(t.ds.Domains, t.ds.Pts)
	keys := make([]string, len(sky))
	for i, r := range sky {
		keys[i] = pointKey(&t.ds.Pts[r])
	}
	sort.Strings(keys) // the pool depends on the table's content, not on its row order
	for i := 0; i < writerPool && i < len(keys); i++ {
		w.pool = append(w.pool, keys[i*len(keys)/writerPool])
	}
	w.reset()
	return w
}

// reset returns the writer to the initial table: a fresh deployment
// starts from the generated rows again.
func (w *writer) reset() {
	w.rng = rand.New(rand.NewSource(w.seed*53 + 11))
	w.mirror = w.base.ds
	w.members, w.parked = nil, nil
	w.next = w.rng.Intn(len(w.pool))
}

// table renders the mirror as a table over the base schema.
func (w *writer) table() *table {
	return &table{cfg: w.base.cfg, ds: w.mirror, bound: w.base.bound}
}

func (w *writer) cycle(x *runner) {
	for _, s := range writerSteps {
		w.step(x, s)
	}
}

// draw picks the next batch: n distinct rows outside the skyline and m
// pool members inside it to remove, and the rows to add — fresh ones,
// except that a member's removal brings the previously removed member
// back.
func (w *writer) draw(n, m, adds int) ([]int, []core.Point, serve.BatchRequest) {
	isMember := make(map[int]bool, len(w.members))
	for _, r := range w.members {
		isMember[r] = true
	}
	var remove []int
	chosen := map[int]bool{}
	for len(remove) < n && len(w.members)+n <= len(w.mirror.Pts) {
		if r := w.rng.Intn(len(w.mirror.Pts)); !isMember[r] && !chosen[r] {
			chosen[r] = true
			remove = append(remove, r)
		}
	}
	add := make([]core.Point, adds)
	for i := range add {
		add[i] = randomPoint(w.rng, w.base.cfg, w.mirror.Domains)
	}
	for i := 0; i < m; i++ {
		r, ok := w.poolMember()
		if !ok {
			continue
		}
		remove = append(remove, r)
		back := w.parked
		member := w.mirror.Pts[r]
		w.parked = &member
		if back != nil && len(add) > 0 {
			add[len(add)-1] = *back
		}
	}
	req := serve.BatchRequest{Remove: remove}
	for i := range add {
		req.Add = append(req.Add, rowSpec(&add[i]))
	}
	return remove, add, req
}

// poolMember returns the row index of the pool's next member that is in
// the skyline now: a fresh row may have demoted one, and the last one
// removed is not back yet. It reports false when no pool member is: the
// batch comes out short, and step fails it.
func (w *writer) poolMember() (int, bool) {
	for range w.pool {
		key := w.pool[w.next]
		w.next = (w.next + 1) % len(w.pool)
		for _, r := range w.members {
			if pointKey(&w.mirror.Pts[r]) == key {
				return r, true
			}
		}
	}
	return 0, false
}

// applied records an acknowledged batch in the mirror.
func (w *writer) applied(remove []int, add []core.Point) {
	w.mirror, _ = applyDelta(w.mirror, remove, add)
}

func (w *writer) setMembers(rows []serve.SkylineRow) {
	w.members = make([]int, len(rows))
	for i, r := range rows {
		w.members[i] = r.Row
	}
}

// step sends one batch and the raw read behind it.
func (w *writer) step(x *runner, s writerStep) {
	if w.members == nil {
		// Before the first raw answer (the warm-up cycle's first step)
		// membership is unknown: read it, untimed.
		a, err := x.c.fetch(&w.raw)
		if err != nil {
			x.attempted++
			x.fail(err)
			return
		}
		w.setMembers(a.rows)
	}
	remove, add, req := w.draw(s.nonMembers, s.members, s.adds)
	if len(remove) != s.nonMembers+s.members {
		// Sent short, the batch would be another class's work.
		x.attempted++
		x.fail(fmt.Errorf("%s batch: %d rows to remove, want %d", s.class, len(remove), s.nonMembers+s.members))
		return
	}
	o := batch(s.class, req)
	if !x.do(&o) {
		return // not applied (or halted): the mirror stays where the server is
	}
	w.applied(remove, add)
	w.members = nil
	body, ok := x.doKeep(&w.raw)
	if !ok {
		return
	}
	a, err := decodeBuffered(body)
	if err != nil {
		x.attempted++
		x.fail(err)
		return
	}
	w.setMembers(a.rows)
}
