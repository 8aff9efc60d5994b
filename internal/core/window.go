package core

import "repro/internal/poset"

// Window is the kernel's evicting dominance window — "is this point
// dominated by the set so far; if not, evict what it dominates and
// join" — over columnar, zone-mapped colSets, so one offer skips every
// block that cannot hold a dominator or a victim. BNL's candidate list,
// skyline maintenance and the coordinator's streamed merge are its
// callers.
//
// A tagged window holds the lists of several shards, each of them
// already a skyline, in one colSet per shard tag: an offer never looks
// at its own shard's set, in either direction. Member indexes are
// stable — the i-th admitted point is member i for the window's
// lifetime. An untagged window is one set that compacts itself once
// most members are evicted, so only its live set is meaningful. A
// Window is single-goroutine.
type Window struct {
	sets   []*colSet // tagged: indexed by shard tag; untagged: one set
	pr     *probe
	tagged bool
	budget int64
	at     []member // tagged: where member i lives
}

type member struct{ set, i int32 }

// NewWindow returns an empty window over nTO totally ordered dimensions
// and the given PO domains. budget is the per-domain closure budget
// (0 → poset.DefaultClosureBudget, negative → closure disabled).
func NewWindow(domains []*poset.Domain, nTO int, budget int64, tagged bool) *Window {
	k := newColSet(domains, nTO, 64, budget, true)
	return &Window{sets: []*colSet{k}, pr: k.newProbe(), tagged: tagged, budget: budget}
}

// Offer admits the point unless a live member strictly dominates it,
// evicting every live member it strictly dominates first, and reports
// whether it was admitted. shard is the point's tag (≥ 0) in a tagged
// window and ignored otherwise. Exact duplicates never dominate each
// other.
func (w *Window) Offer(to, po []int32, id, shard int32) bool {
	own := -1
	if w.tagged {
		own = int(shard)
	}
	w.sets[0].begin(w.pr, to, po)
	if anyOtherDominator(w.sets, own, w.pr) {
		return false
	}
	// An undominated point evicts what it dominates; a dominated one
	// could evict nothing, since its dominator would dominate the same
	// members and the live set is mutually non-dominated.
	for s, k := range w.sets {
		if s != own {
			k.evictDominatedBy(w.pr)
		}
	}
	if !w.tagged {
		w.sets[0].maybeCompact()
		w.sets[0].append(to, po, id)
		return true
	}
	for own >= len(w.sets) {
		first := w.sets[0]
		w.sets = append(w.sets, newColSet(first.domains, first.nTO, 64, w.budget, true))
	}
	k := w.sets[own]
	w.at = append(w.at, member{set: shard, i: int32(k.cols.Len())})
	k.append(to, po, id)
	return true
}

// seed admits a point into an untagged window without probing it, for
// seed points known to be mutually non-dominated (a maintained
// skyline's surviving members). A seeded window keeps no member rows:
// it is probed too few times to repay building them.
func (w *Window) seed(to, po []int32, id int32) {
	if k := w.sets[0]; k.cols.Len() == 0 {
		clear(k.reach)
		clear(k.reachT)
	}
	w.sets[0].append(to, po, id)
}

// aliveIDs appends the ids of an untagged window's live members, in
// admission order.
func (w *Window) aliveIDs(out []int32) []int32 { return w.sets[0].aliveIDs(out) }

// Alive reports whether member i of a tagged window is still live.
func (w *Window) Alive(i int) bool {
	m := w.at[i]
	return w.sets[m.set].alive[m.i>>6]>>(uint(m.i)&63)&1 != 0
}

// Close folds the window's dominance tests and zone-map block skips
// into the process-cumulative KernelCounters.
func (w *Window) Close() {
	var m Metrics
	w.pr.addTo(&m)
}
