package core

import (
	"math"
	"math/bits"
	"sync/atomic"

	"repro/internal/poset"
)

// This file is the dominance kernel: the columnar (SoA) elimination
// engine shared by SFS's scan and BNL's window, the sTSS/dTSS
// checker's point tests, skyline maintenance, the partition/cluster
// merge passes and the coordinator's streamed merge.
// Three ideas compose, and a fourth serves TO-only sets:
//
//  1. Per-value member rows — when a domain's transitive closure fits
//     its memory budget (poset.Domain.EnableClosure), each block keeps,
//     per domain value v, the mask of its members whose value is ⪯ v
//     (and, in sets that evict, ⪰ v), so one PO dimension of a 64-member
//     word is one word load. Blocks past the rows' budget, and
//     dimensions without a closure, test each member with TPrefers.
//  2. Columnar loops — members live in dimension-major int32 columns
//     (Cols); the TO columns are tested only on the members the rows
//     leave, one at a time when few survive and 64 at a time with
//     branchless sign-trick masks when many do.
//  3. Block zone maps — members are grouped into fixed 256-point blocks
//     carrying min/max TO corners, topological-ordinal bounds and the
//     member rows (a value-presence bitset past the rows' budget), so an
//     elimination pass skips whole blocks that provably cannot contain
//     a dominator (or, for evictions, a dominated member) — the
//     intra-node analog of the cluster's min-corner shard pruning.
//  4. A hot list — a grow-only set with no PO dimension tests its first
//     hotMembers members exactly before the block scan. In a presorted
//     scan they have the smallest keys and dominate most of what is
//     dominated, so most probes stop at one or two row compares instead
//     of a block's 64-lane TO loops. This is LESS's elimination filter
//     (Godfrey et al.) kept inside the kernel; PO sets skip it, because
//     their member rows already filter cheaply.
//
// Options.NoKernel forces the scalar *Point/interval reference path,
// which remains the correctness oracle the kernel is fuzzed against.

// kernelBlock is the zone-map block size. 256 members = 4 mask words:
// small enough that min-corner summaries stay tight, large enough that
// a skipped block saves real work.
const kernelBlock = 256

// blockWords is the number of 64-member mask words in a block.
const blockWords = kernelBlock / 64

// hotMembers bounds a hot list: LESS's elimination filter saturates at
// a handful of points (Godfrey et al.), and 16 row compares stay cheap
// when none of them dominates.
const hotMembers = 16

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
	// dn[d] and up[d] are PO dim d's member rows: word v·blockWords+w
	// holds the members in mask word w whose value is ⪯ v (dn) or ⪰ v
	// (up); evicted members stay, as in the corners. A block past the
	// rows' budget has present[d], the values its members take, instead.
	dn, up, present [][]uint64
}

// colSet is the kernel's member set: columnar storage plus zone-map
// blocks plus an aliveness mask (for BNL-style eviction). It backs the
// grow-only SFS scan and kernelChecker, the evicting Window (BNL and the
// coordinator's streamed merge) and the merge pass's per-shard sets
// (eliminateDominated). A set holds no shard tags: callers that keep
// several shards' lists apart keep one set per shard (tagSets, a
// tagged Window) and probe only the other shards' sets.
type colSet struct {
	domains []*poset.Domain
	nTO     int
	budget  int64                 // bytes of member rows one PO dim may hold per direction
	evicts  bool                  // blocks also keep up rows
	reach   []*poset.Reachability // per PO dim closure; nil → no rows, ordinal bounds
	reachT  []*poset.Reachability // per PO dim transposed closure

	cols   *Cols
	alive  []uint64 // member liveness mask
	nAlive int
	blocks []kblock
	// hot holds the TO rows of the first hotMembers members, row-major,
	// in a grow-only set with no PO dimension; nil in every other set.
	hot []int32
}

// newColSet builds an empty kernel set over the given domains. budget
// is the per-domain closure budget (0 → poset.DefaultClosureBudget,
// negative → closure disabled, no member rows, interval/ordinal
// fallbacks throughout), and so are one dimension's member rows in each
// direction. evicts adds the up rows evictDominatedBy tests with.
func newColSet(domains []*poset.Domain, nTO, capHint int, budget int64, evicts bool) *colSet {
	if budget == 0 {
		budget = poset.DefaultClosureBudget
	}
	k := &colSet{
		domains: domains,
		nTO:     nTO,
		budget:  budget,
		evicts:  evicts,
		cols:    NewCols(nTO, len(domains), capHint),
		reach:   make([]*poset.Reachability, len(domains)),
		reachT:  make([]*poset.Reachability, len(domains)),
	}
	for d, dm := range domains {
		if budget > 0 && dm.EnableClosure(budget) {
			k.reach[d], k.reachT[d] = dm.Closure(), dm.ClosureTranspose()
		}
	}
	if !evicts && len(domains) == 0 && nTO > 0 {
		k.hot = make([]int32, 0, hotMembers*nTO)
	}
	return k
}

// newBlock opens the zone-map block that starts at member i. A PO
// dimension with a closure gives it member rows while the set's rows
// of that dimension stay within the budget (per direction), and a
// value-presence bitset after that.
func (k *colSet) newBlock(i int) kblock {
	nPO := len(k.domains)
	rows := make([][]uint64, 3*nPO)
	b := kblock{
		lo: i, hi: i,
		minTO: make([]int32, k.nTO), maxTO: make([]int32, k.nTO),
		minOrd: make([]int32, nPO), maxOrd: make([]int32, nPO),
		dn: rows[:nPO:nPO], up: rows[nPO : 2*nPO : 2*nPO], present: rows[2*nPO:],
	}
	for d := range b.minTO {
		b.minTO[d], b.maxTO[d] = math.MaxInt32, math.MinInt32
	}
	for d, dm := range k.domains {
		b.minOrd[d], b.maxOrd[d] = math.MaxInt32, math.MinInt32
		n := blockWords * dm.Size()
		switch {
		case k.reach[d] == nil:
		case int64(len(k.blocks)+1)*int64(n)*8 > k.budget:
			b.present[d] = make([]uint64, (dm.Size()+63)/64)
		default:
			b.dn[d] = make([]uint64, n)
			if k.evicts {
				b.up[d] = make([]uint64, n)
			}
		}
	}
	return b
}

// append adds a member and folds it into the current block's zone map.
func (k *colSet) append(to, po []int32, id int32) {
	i := k.cols.Len()
	k.cols.Append(to, po, id)
	if k.hot != nil && i < hotMembers {
		k.hot = append(k.hot, to...)
	}
	if i&63 == 0 {
		k.alive = append(k.alive, 0)
	}
	bit := uint64(1) << (uint(i) & 63)
	k.alive[i>>6] |= bit
	k.nAlive++
	if i%kernelBlock == 0 {
		k.blocks = append(k.blocks, k.newBlock(i))
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
	w := (i - b.lo) >> 6
	for d, v := range po {
		o := k.domains[d].Ord(v)
		if o < b.minOrd[d] {
			b.minOrd[d] = o
		}
		if o > b.maxOrd[d] {
			b.maxOrd[d] = o
		}
		if r := b.dn[d]; r != nil {
			setRows(r, k.reach[d].Row(v), v, w, bit)
		}
		if r := b.up[d]; r != nil {
			setRows(r, k.reachT[d].Row(v), v, w, bit)
		}
		if p := b.present[d]; p != nil {
			p[v>>6] |= 1 << (uint(v) & 63)
		}
	}
}

// setRows sets bit in mask word w of the rows of v and of every value
// in closure row cl.
func setRows(rows, cl []uint64, v int32, w int, bit uint64) {
	rows[int(v)*blockWords+w] |= bit
	for cw, word := range cl {
		for ; word != 0; word &= word - 1 {
			rows[(cw*64+bits.TrailingZeros64(word))*blockWords+w] |= bit
		}
	}
}

// anyRow reports whether some member of a block is in the row of v.
func anyRow(rows []uint64, v int32) bool {
	for _, w := range rows[int(v)*blockWords : (int(v)+1)*blockWords] {
		if w != 0 {
			return true
		}
	}
	return false
}

// anyPresent reports whether a value-presence bitset holds v or a value
// of closure row cl.
func anyPresent(present, cl []uint64, v int32) bool {
	if present[v>>6]>>(uint(v)&63)&1 != 0 {
		return true
	}
	for i, w := range present {
		if w&cl[i] != 0 {
			return true
		}
	}
	return false
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
// candidate's attributes and ordinals, and local counters (merged into
// Metrics and the process counters at pass end).
type probe struct {
	to, po []int32
	ord    []int32 // per PO dim: ord(po[d])

	domTests   int64
	blockSkips int64
}

func (k *colSet) newProbe() *probe {
	return &probe{ord: make([]int32, len(k.domains))}
}

// begin loads a candidate into pr.
func (k *colSet) begin(pr *probe, to, po []int32) {
	pr.to, pr.po = to, po
	for d, dm := range k.domains {
		pr.ord[d] = dm.Ord(po[d])
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

// blockMayHold is the zone-map admission test of both scans: false
// proves that no member of b is at least as good as the candidate or,
// under evict, that the candidate is at least as good as no member —
// some TO dim has every member beyond the candidate, or some PO dim has
// no member on the candidate's side: an empty row, no present value in
// the candidate's closure row or, without a closure, the ordinal bound
// (sound because reachability implies a smaller topological ordinal).
func (k *colSet) blockMayHold(b *kblock, pr *probe, evict bool) bool {
	to, ord, rows, cl := b.minTO, b.minOrd, b.dn, k.reachT
	if evict {
		to, ord, rows, cl = b.maxTO, b.maxOrd, b.up, k.reach
	}
	for d, c := range to {
		if beyond(c, pr.to[d], evict) {
			return false
		}
	}
	for d, r := range rows {
		v, p := pr.po[d], b.present[d]
		if r != nil && !anyRow(r, v) || p != nil && !anyPresent(p, cl[d].Row(v), v) ||
			r == nil && p == nil && beyond(ord[d], pr.ord[d], evict) {
			return false
		}
	}
	return true
}

// beyond reports whether a member's value c is strictly worse than the
// candidate's v or, under evict, strictly better.
func beyond(c, v int32, evict bool) bool {
	if evict {
		return c < v
	}
	return c > v
}

// anyDominator reports whether a live member strictly dominates the
// candidate loaded into pr: a hot-list member, or one the block scan
// finds (which tests the hot members again when none of them does).
func (k *colSet) anyDominator(pr *probe) bool {
	for h := 0; h < len(k.hot); h += k.nTO {
		pr.domTests++
		if toDominates(k.hot[h:h+k.nTO], pr.to) {
			return true
		}
	}
	for bi := range k.blocks {
		b := &k.blocks[bi]
		if !k.blockMayHold(b, pr, false) {
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
// sets[own] strictly dominates the candidate loaded into pr. Each set
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
		for m := k.weakMembers(b, base, pr, false); m != 0; m &= m - 1 {
			if !k.equalAt(base+bits.TrailingZeros64(m), pr) {
				return true
			}
		}
	}
	return false
}

// weakMembers is the member filter of both scans: the mask of the live
// members of block b in the 64-member word at base that are at least as
// good as the candidate in every dimension (the weak dominators) or,
// under evict, that the candidate is at least as good as. It ANDs one
// row word per PO dimension with rows, tests the TO columns on the
// survivors, then each remaining member of the other PO dimensions with
// TPrefers. Strictness (exact duplicates never dominate) is left to a
// scalar equalAt check by the caller.
func (k *colSet) weakMembers(b *kblock, base int, pr *probe, evict bool) uint64 {
	m := k.alive[base>>6]
	if m == 0 {
		return 0
	}
	pr.domTests += int64(bits.OnesCount64(m))
	rows := b.dn
	if evict {
		rows = b.up
	}
	w := (base - b.lo) >> 6
	for d, r := range rows {
		if r != nil {
			m &= r[int(pr.po[d])*blockWords+w]
		}
	}
	if m == 0 {
		return 0
	}
	// TO: one survivor at a time when the rows leave few (the paper's
	// shapes), 64 lanes when many survive (rowless windows, TO-only sets).
	// Each loop alone is slower on one of them; cutoffs 16–32 measured best.
	if bits.OnesCount64(m) <= 16 {
		for mm := m; mm != 0; mm &= mm - 1 {
			j := bits.TrailingZeros64(mm)
			for d := 0; d < k.nTO; d++ {
				if beyond(k.cols.TO[d][base+j], pr.to[d], evict) {
					m &^= 1 << uint(j)
					break
				}
			}
		}
	} else {
		lim := min(base+64, b.hi)
		for d := 0; d < k.nTO && m != 0; d++ {
			m &^= beyondLanes(k.cols.TO[d][base:lim], pr.to[d], evict)
		}
	}
	for d, r := range rows {
		if r != nil || m == 0 {
			continue
		}
		col := k.cols.PO[d][base:]
		dm, bv := k.domains[d], pr.po[d]
		for mm := m; mm != 0; mm &= mm - 1 {
			j := bits.TrailingZeros64(mm)
			x, y := col[j], bv
			if evict {
				x, y = y, x
			}
			if x != y && !dm.TPrefers(x, y) {
				m &^= 1 << uint(j)
			}
		}
	}
	return m
}

// beyondLanes is beyond over up to 64 members at once: bit j is set
// when col[j] is beyond v, by branchless sign tricks. Inlined into
// weakMembers, its loop spilled the mask to the stack on every member
// and TO-only scans ran ≈ 20 % slower.
//
//go:noinline
func beyondLanes(col []int32, v int32, evict bool) (bad uint64) {
	w := int64(v)
	if evict {
		for j, c := range col {
			bad |= (uint64(int64(c)-w) >> 63) << uint(j)
		}
		return bad
	}
	for j, c := range col {
		bad |= (uint64(w-int64(c)) >> 63) << uint(j)
	}
	return bad
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
		if !k.blockMayHold(b, pr, true) {
			pr.blockSkips++
			continue
		}
		k.scanEvict(b, pr)
	}
}

// scanEvict evicts the members of block b the candidate strictly
// dominates: its weakly dominated members minus exact duplicates.
func (k *colSet) scanEvict(b *kblock, pr *probe) {
	for base := b.lo; base < b.hi; base += 64 {
		dom := k.weakMembers(b, base, pr, true)
		for mm := dom; mm != 0; mm &= mm - 1 {
			j := bits.TrailingZeros64(mm)
			if k.equalAt(base+j, pr) {
				dom &^= 1 << uint(j)
			}
		}
		k.alive[base>>6] &^= dom
		k.nAlive -= bits.OnesCount64(dom)
	}
}

// maybeCompact rebuilds the columns, and with them the blocks' zone
// maps and member rows, without dead members once more than half the
// set has been evicted, so long BNL runs do not keep scanning corpses.
// Insertion order (and therefore output order) is preserved, but member
// indexes shift: sets whose indexes must stay stable (a tagged
// Window's, the merge pass's) never call it.
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
