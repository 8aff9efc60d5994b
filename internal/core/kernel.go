package core

import (
	"math"
	"math/bits"
	"sync/atomic"

	"repro/internal/poset"
)

// This file is the dominance kernel: the columnar (SoA) elimination
// engine shared by the BNL/SFS/LESS window scans, skyline maintenance,
// the partition/cluster merge passes and the coordinator's streamed
// merge.
// Three ideas compose:
//
//  1. Bitset closure dominance — when a domain's transitive closure
//     fits its memory budget (poset.Domain.EnableClosure), the per-pair
//     PO preference test is one word test, and each candidate compiles
//     its per-dimension predecessor/successor sets into bitsets so a
//     member test is a single indexed bit load.
//  2. Columnar loops — members live in dimension-major int32 columns
//     (Cols) and are tested 64 at a time per dimension with branchless
//     sign-trick masks, early-exiting a word as soon as no member can
//     still dominate.
//  3. Block zone maps — members are grouped into fixed 256-point blocks
//     carrying min/max TO corners and PO value-presence bitsets, so an
//     elimination pass skips whole blocks that provably cannot contain
//     a dominator (or, for evictions, a dominated member) — the
//     intra-node analog of the cluster's min-corner shard pruning.
//
// Options.NoKernel forces the scalar *Point/interval reference path,
// which remains the correctness oracle the kernel is fuzzed against.

// kernelBlock is the zone-map block size. 256 members = 4 mask words:
// small enough that min-corner summaries stay tight, large enough that
// a skipped block saves real work.
const kernelBlock = 256

// Process-cumulative kernel counters, surfaced by /statsz and
// /clusterz: how many member dominance tests the kernels ran and how
// many zone-map blocks they skipped outright.
var (
	kernelDomTests   atomic.Int64
	kernelBlockSkips atomic.Int64
)

// KernelCounters returns the process-cumulative dominance-test and
// block-skip counters of all kernel passes.
func KernelCounters() (domTests, blockSkips int64) {
	return kernelDomTests.Load(), kernelBlockSkips.Load()
}

// kblock is one zone-map block over members [lo, hi).
type kblock struct {
	lo, hi int

	minTO, maxTO   []int32 // per TO dim corner summaries
	minOrd, maxOrd []int32 // per PO dim topological-ordinal bounds
	// present[d] is the value-presence bitset of PO dim d (which domain
	// values occur among members); nil when dim d has no closure.
	present [][]uint64
}

// colSet is the kernel's member set: columnar storage plus zone-map
// blocks plus an aliveness mask (for BNL-style eviction). It backs the
// grow-only SFS/LESS scan, the evicting Window (BNL and the
// coordinator's streamed merge) and the merge pass's per-shard sets
// (eliminateDominated). A set holds no shard tags: callers that keep
// several shards' lists apart keep one set per shard (tagSets, a
// tagged Window) and probe only the other shards' sets.
type colSet struct {
	domains []*poset.Domain
	nTO     int
	reach   []*poset.Reachability // per PO dim closure; nil → interval fallback
	reachT  []*poset.Reachability // per PO dim transposed closure
	words   []int                 // closure row words per PO dim (0 without closure)

	cols   *Cols
	alive  []uint64 // member liveness mask
	nAlive int
	blocks []kblock
}

// newColSet builds an empty kernel set over the given domains. budget
// is the per-domain closure budget (0 → poset.DefaultClosureBudget,
// negative → closure disabled, interval/ordinal fallbacks throughout).
func newColSet(domains []*poset.Domain, nTO, capHint int, budget int64) *colSet {
	k := &colSet{
		domains: domains,
		nTO:     nTO,
		cols:    NewCols(nTO, len(domains), capHint),
		reach:   make([]*poset.Reachability, len(domains)),
		reachT:  make([]*poset.Reachability, len(domains)),
		words:   make([]int, len(domains)),
	}
	for d, dm := range domains {
		if budget >= 0 && dm.EnableClosure(budget) {
			k.reach[d] = dm.Closure()
			k.reachT[d] = dm.ClosureTranspose()
			k.words[d] = k.reach[d].Words()
		}
	}
	return k
}

// append adds a member and folds it into the current block's zone map.
func (k *colSet) append(to, po []int32, id int32) {
	i := k.cols.Len()
	k.cols.Append(to, po, id)
	if i&63 == 0 {
		k.alive = append(k.alive, 0)
	}
	k.alive[i>>6] |= 1 << (uint(i) & 63)
	k.nAlive++
	if i%kernelBlock == 0 {
		b := kblock{
			lo: i, hi: i,
			minTO: make([]int32, k.nTO), maxTO: make([]int32, k.nTO),
		}
		if len(k.domains) > 0 {
			b.minOrd = make([]int32, len(k.domains))
			b.maxOrd = make([]int32, len(k.domains))
			b.present = make([][]uint64, len(k.domains))
		}
		for d := range b.minTO {
			b.minTO[d], b.maxTO[d] = math.MaxInt32, math.MinInt32
		}
		for d := range k.domains {
			b.minOrd[d], b.maxOrd[d] = math.MaxInt32, math.MinInt32
			if k.words[d] > 0 {
				b.present[d] = make([]uint64, k.words[d])
			}
		}
		k.blocks = append(k.blocks, b)
	}
	b := &k.blocks[len(k.blocks)-1]
	b.hi = i + 1
	for d, v := range to {
		if v < b.minTO[d] {
			b.minTO[d] = v
		}
		if v > b.maxTO[d] {
			b.maxTO[d] = v
		}
	}
	for d, v := range po {
		o := k.domains[d].Ord(v)
		if o < b.minOrd[d] {
			b.minOrd[d] = o
		}
		if o > b.maxOrd[d] {
			b.maxOrd[d] = o
		}
		if b.present[d] != nil {
			b.present[d][v>>6] |= 1 << (uint(v) & 63)
		}
	}
}

// aliveIDs appends the ids of live members, in insertion order.
func (k *colSet) aliveIDs(out []int32) []int32 {
	for i, id := range k.cols.IDs {
		if k.alive[i>>6]>>(uint(i)&63)&1 != 0 {
			out = append(out, id)
		}
	}
	return out
}

// probe is the per-candidate, per-goroutine state of a kernel pass: the
// candidate's attributes, its compiled per-dimension bitsets, and local
// counters (merged into Metrics and the process counters at pass end).
type probe struct {
	to, po []int32
	ord    []int32 // per PO dim: ord(po[d])
	// leq[d] = {v : v ⪯ po[d]} — the values at least as good as the
	// candidate's (candidate's dominator set). geq[d] = {v : po[d] ⪯ v}
	// — the values the candidate is at least as good as (its dominated
	// set, used for evictions). nil entries → interval fallback.
	leq, geq       [][]uint64
	leqBuf, geqBuf [][]uint64

	domTests   int64
	blockSkips int64
}

func (k *colSet) newProbe() *probe {
	nPO := len(k.domains)
	pr := &probe{
		ord: make([]int32, nPO),
		leq: make([][]uint64, nPO), geq: make([][]uint64, nPO),
		leqBuf: make([][]uint64, nPO), geqBuf: make([][]uint64, nPO),
	}
	for d := range k.domains {
		if k.words[d] > 0 {
			pr.leqBuf[d] = make([]uint64, k.words[d])
			pr.geqBuf[d] = make([]uint64, k.words[d])
		}
	}
	return pr
}

// begin compiles a candidate into pr. needGeq additionally compiles the
// dominated-set bitsets evictions need.
func (k *colSet) begin(pr *probe, to, po []int32, needGeq bool) {
	pr.to, pr.po = to, po
	for d, dm := range k.domains {
		v := po[d]
		pr.ord[d] = dm.Ord(v)
		if rt := k.reachT[d]; rt != nil {
			buf := pr.leqBuf[d]
			copy(buf, rt.Row(v))
			buf[v>>6] |= 1 << (uint(v) & 63)
			pr.leq[d] = buf
		} else {
			pr.leq[d] = nil
		}
		pr.geq[d] = nil
		if needGeq {
			if r := k.reach[d]; r != nil {
				buf := pr.geqBuf[d]
				copy(buf, r.Row(v))
				buf[v>>6] |= 1 << (uint(v) & 63)
				pr.geq[d] = buf
			}
		}
	}
}

// addTo merges the probe's counters into m and the process-cumulative
// kernel counters, then resets them.
func (pr *probe) addTo(m *Metrics) {
	m.DomChecks += pr.domTests
	m.BlocksSkipped += pr.blockSkips
	kernelDomTests.Add(pr.domTests)
	kernelBlockSkips.Add(pr.blockSkips)
	pr.domTests, pr.blockSkips = 0, 0
}

func wordsIntersect(a, b []uint64) bool {
	for i, w := range a {
		if w&b[i] != 0 {
			return true
		}
	}
	return false
}

// blockMayDominate is the zone-map admission test for dominator scans:
// false proves no member of b can dominate the candidate — some TO dim
// has every member strictly worse than the candidate, or some PO dim
// has no member value at least as good (presence ∩ dominator set empty;
// ordinal bound in the no-closure fallback, sound because reachability
// implies a smaller topological ordinal).
func (k *colSet) blockMayDominate(b *kblock, pr *probe) bool {
	for d := 0; d < k.nTO; d++ {
		if b.minTO[d] > pr.to[d] {
			return false
		}
	}
	for d := range k.domains {
		if lq := pr.leq[d]; lq != nil {
			if !wordsIntersect(b.present[d], lq) {
				return false
			}
		} else if b.minOrd[d] > pr.ord[d] {
			return false
		}
	}
	return true
}

// blockMayBeDominated is the eviction-direction zone test: false proves
// the candidate dominates no member of b.
func (k *colSet) blockMayBeDominated(b *kblock, pr *probe) bool {
	for d := 0; d < k.nTO; d++ {
		if b.maxTO[d] < pr.to[d] {
			return false
		}
	}
	for d := range k.domains {
		if gq := pr.geq[d]; gq != nil {
			if !wordsIntersect(b.present[d], gq) {
				return false
			}
		} else if b.maxOrd[d] < pr.ord[d] {
			return false
		}
	}
	return true
}

// anyDominator reports whether a live member strictly dominates the
// candidate compiled into pr.
func (k *colSet) anyDominator(pr *probe) bool {
	for bi := range k.blocks {
		b := &k.blocks[bi]
		if !k.blockMayDominate(b, pr) {
			pr.blockSkips++
			continue
		}
		if k.scanDominator(b, pr) {
			return true
		}
	}
	return false
}

// anyOtherDominator reports whether a live member of a set other than
// sets[own] strictly dominates the candidate compiled into pr. Each set
// holds one shard's members, and a shard's own list is already a
// skyline, so its set is never probed. own < 0 probes every set.
func anyOtherDominator(sets []*colSet, own int, pr *probe) bool {
	for s, k := range sets {
		if s != own && k.anyDominator(pr) {
			return true
		}
	}
	return false
}

// scanDominator reports whether block b holds a strict dominator of the
// candidate: the first weak dominator that is not an exact duplicate.
func (k *colSet) scanDominator(b *kblock, pr *probe) bool {
	for base := b.lo; base < b.hi; base += 64 {
		for m := k.weakDominators(b, base, pr); m != 0; {
			j := bits.TrailingZeros64(m)
			m &^= 1 << uint(j)
			if !k.equalAt(base+j, pr) {
				return true
			}
		}
	}
	return false
}

// weakDominators runs the masked columnar dominance test over the 64
// members of block b starting at base and returns the mask of those at
// least as good as the candidate in every dimension: m tracks members
// still qualifying after each dimension processed. Strictness (exact
// duplicates never dominate) is left to a scalar equalAt check by the
// caller on the few bits that survive all dimensions — keeping the hot
// per-lane loops to one mask each.
func (k *colSet) weakDominators(b *kblock, base int, pr *probe) uint64 {
	m := k.alive[base>>6]
	if m == 0 {
		return 0
	}
	lim := min(base+64, b.hi)
	pr.domTests += int64(bits.OnesCount64(m))
	for d := 0; d < k.nTO && m != 0; d++ {
		col := k.cols.TO[d][base:lim]
		v := int64(pr.to[d])
		var gt uint64
		for j := 0; j < len(col); j++ {
			diff := v - int64(col[j])
			gt |= (uint64(diff) >> 63) << uint(j)
		}
		m &^= gt
	}
	for d := 0; d < len(k.domains) && m != 0; d++ {
		col := k.cols.PO[d][base:lim]
		bv := pr.po[d]
		if lq := pr.leq[d]; lq != nil {
			var bad uint64
			for j := 0; j < len(col); j++ {
				cv := col[j]
				good := lq[cv>>6] >> (uint(cv) & 63) & 1
				bad |= (good ^ 1) << uint(j)
			}
			m &^= bad
		} else {
			dm := k.domains[d]
			mm := m
			for mm != 0 {
				j := bits.TrailingZeros64(mm)
				mm &^= 1 << uint(j)
				cv := col[j]
				if cv != bv && !dm.TPrefers(cv, bv) {
					m &^= 1 << uint(j)
				}
			}
		}
	}
	return m
}

// equalAt reports whether member i is an exact duplicate of the probe's
// candidate in every dimension.
func (k *colSet) equalAt(i int, pr *probe) bool {
	for d := 0; d < k.nTO; d++ {
		if k.cols.TO[d][i] != pr.to[d] {
			return false
		}
	}
	for d := range k.domains {
		if k.cols.PO[d][i] != pr.po[d] {
			return false
		}
	}
	return true
}

// evictDominatedBy clears the alive bits of members the candidate
// strictly dominates (BNL window maintenance). Zone maps are left
// stale: min corners only get *more* conservative as members die, so
// skips remain sound.
func (k *colSet) evictDominatedBy(pr *probe) {
	for bi := range k.blocks {
		b := &k.blocks[bi]
		if !k.blockMayBeDominated(b, pr) {
			pr.blockSkips++
			continue
		}
		k.scanEvict(b, pr)
	}
}

// scanEvict is weakDominators with the comparison reversed: m tracks
// members the candidate is at-least-as-good as in every dimension, and
// the surviving bits minus exact duplicates are evicted.
func (k *colSet) scanEvict(b *kblock, pr *probe) {
	for base := b.lo; base < b.hi; base += 64 {
		w := base >> 6
		m := k.alive[w]
		if m == 0 {
			continue
		}
		lim := min(base+64, b.hi)
		pr.domTests += int64(bits.OnesCount64(m))
		for d := 0; d < k.nTO && m != 0; d++ {
			col := k.cols.TO[d][base:lim]
			v := int64(pr.to[d])
			var lt uint64
			for j := 0; j < len(col); j++ {
				diff := int64(col[j]) - v
				lt |= (uint64(diff) >> 63) << uint(j)
			}
			m &^= lt
		}
		for d := 0; d < len(k.domains) && m != 0; d++ {
			col := k.cols.PO[d][base:lim]
			bv := pr.po[d]
			if gq := pr.geq[d]; gq != nil {
				var bad uint64
				for j := 0; j < len(col); j++ {
					cv := col[j]
					good := gq[cv>>6] >> (uint(cv) & 63) & 1
					bad |= (good ^ 1) << uint(j)
				}
				m &^= bad
			} else {
				dm := k.domains[d]
				mm := m
				for mm != 0 {
					j := bits.TrailingZeros64(mm)
					mm &^= 1 << uint(j)
					cv := col[j]
					if cv != bv && !dm.TPrefers(bv, cv) {
						m &^= 1 << uint(j)
					}
				}
			}
		}
		dom := m
		for mm := m; mm != 0; {
			j := bits.TrailingZeros64(mm)
			mm &^= 1 << uint(j)
			if k.equalAt(base+j, pr) {
				dom &^= 1 << uint(j)
			}
		}
		if dom != 0 {
			k.alive[w] &^= dom
			k.nAlive -= bits.OnesCount64(dom)
		}
	}
}

// maybeCompact rebuilds the columns without dead members once more than
// half the set has been evicted, so long BNL runs do not keep scanning
// corpses. Insertion order (and therefore output order) is preserved,
// but member indexes shift: sets whose indexes must stay stable (a
// tagged Window's, the merge pass's) never call it.
func (k *colSet) maybeCompact() {
	n := k.cols.Len()
	if n < 2*kernelBlock || 2*k.nAlive >= n {
		return
	}
	old := k.cols
	oldAlive := k.alive
	// k.alive must NOT reuse oldAlive's storage: the re-append loop below
	// still reads old liveness bits while appends write new words, and
	// sharing the array would clobber bits ahead of the read cursor.
	k.cols = NewCols(k.nTO, len(k.domains), k.nAlive)
	k.alive = make([]uint64, 0, (k.nAlive+63)/64)
	k.blocks = k.blocks[:0]
	k.nAlive = 0
	to := make([]int32, k.nTO)
	po := make([]int32, len(k.domains))
	for i := 0; i < n; i++ {
		if oldAlive[i>>6]>>(uint(i)&63)&1 == 0 {
			continue
		}
		for d := range to {
			to[d] = old.TO[d][i]
		}
		for d := range po {
			po[d] = old.PO[d][i]
		}
		k.append(to, po, old.IDs[i])
	}
}
