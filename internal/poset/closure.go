package poset

// DefaultClosureBudget is the default per-domain memory budget for the
// transitive-closure bitset: 4 MiB covers domains up to ~5,700 values
// (the closure costs |D|·⌈|D|/64⌉·8 bytes), far beyond the paper's
// largest evaluated domain, while keeping a pathological million-value
// DAG on the interval fallback instead of allocating ~120 GB.
const DefaultClosureBudget = int64(4 << 20)

// ClosureBytes returns the memory the closure bitset of this domain
// occupies (or would occupy): one |D|-bit row per value.
func (dm *Domain) ClosureBytes() int64 {
	n := int64(dm.dag.N())
	words := (n + 63) / 64
	return n * words * 8
}

// ClosureFits reports whether the closure bitset fits in the given
// memory budget. It is deterministic from the domain size alone, so
// planners can predict the kernel choice without triggering a build.
func (dm *Domain) ClosureFits(budget int64) bool {
	return dm.ClosureBytes() <= budget
}

// EnableClosure builds the transitive-closure bitset and switches
// TPrefers to the O(1) word-test path, provided the closure fits in
// budget bytes (≤ 0 selects DefaultClosureBudget). Returns whether the
// closure is enabled after the call.
//
// Like EnableDyadic it is idempotent and safe to call concurrently
// with itself and with queries: the bitset is built once under a mutex
// and published atomically, so concurrent TPrefers calls either see
// the finished closure or use the interval fallback — never a
// partially built structure, and always the same answer.
func (dm *Domain) EnableClosure(budget int64) bool {
	if dm.reach.Load() != nil {
		return true
	}
	if budget <= 0 {
		budget = DefaultClosureBudget
	}
	if !dm.ClosureFits(budget) {
		return false
	}
	dm.reachMu.Lock()
	defer dm.reachMu.Unlock()
	if dm.reach.Load() == nil {
		dm.reach.Store(NewReachability(dm.dag))
	}
	return true
}

// Closure returns the published closure bitset, or nil when it has not
// been built (or did not fit its budget). Callers holding the returned
// pointer may use it freely — Reachability is immutable.
func (dm *Domain) Closure() *Reachability { return dm.reach.Load() }

// ClosureTranspose returns the transposed closure (row y = y's
// predecessor set), building and caching it on first use. Returns nil
// when the closure itself is not enabled.
func (dm *Domain) ClosureTranspose() *Reachability {
	if t := dm.reachT.Load(); t != nil {
		return t
	}
	r := dm.reach.Load()
	if r == nil {
		return nil
	}
	dm.reachMu.Lock()
	defer dm.reachMu.Unlock()
	if t := dm.reachT.Load(); t != nil {
		return t
	}
	t := r.Transpose()
	dm.reachT.Store(t)
	return t
}
