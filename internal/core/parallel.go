package core

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/poset"
)

// Parallel wraps any algorithm in a partition-and-merge
// executor: the dataset is split into P contiguous shards
// (P = opt.Parallelism, defaulting to runtime.GOMAXPROCS(0)), the inner
// algorithm computes each shard's local skyline on a worker pool, and a
// final t-dominance elimination pass merges the local skylines into the
// global one.
//
// Correctness rests on two standard facts about dominance (which the
// exact t-dominance relation shares, being a strict partial order):
// a globally non-dominated point is non-dominated within its own shard,
// so the global skyline is a subset of the union of local skylines; and
// dominance is transitive, so any dominator of a merge candidate is
// itself dominated only by points that also dominate the candidate —
// hence checking candidates against the candidate union alone suffices.
//
// The executor is blocking: results surface only after the merge. Metrics
// are aggregated across shards — counters summed, per-shard detail kept
// in Metrics.Shards — and the top-level CPU is the executor's
// wall-clock time, the number parallel speedups are measured on.
func Parallel(inner Algorithm) Algorithm {
	return &parallelAlgorithm{inner: inner}
}

type parallelAlgorithm struct {
	inner Algorithm
}

func (p *parallelAlgorithm) Name() string {
	return "parallel(" + p.inner.Name() + ")"
}

func (p *parallelAlgorithm) Capabilities() Capabilities { return p.inner.Capabilities() }

func (p *parallelAlgorithm) Run(ds *Dataset, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	// Started before any executor setup (id map, dyadic pre-build) so
	// the reported wall-clock covers everything the executor adds.
	start := time.Now()
	shards := opt.Parallelism
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards > len(ds.Pts) {
		shards = len(ds.Pts)
	}
	// The merge resolves local skyline ids back to points, which is only
	// well-defined when ids are unique. Enforced before the single-shard
	// early return so acceptance does not depend on how Parallelism
	// resolves against the host's CPU count.
	byID := make(map[int32]*Point, len(ds.Pts))
	for i := range ds.Pts {
		pt := &ds.Pts[i]
		if _, dup := byID[pt.ID]; dup {
			return nil, fmt.Errorf("core: parallel executor requires unique point IDs (duplicate %d)", pt.ID)
		}
		byID[pt.ID] = pt
	}
	if shards <= 1 {
		res, err := p.inner.Run(ds, opt)
		if err != nil {
			return nil, err
		}
		// Keep the executor's metrics contract even with one shard, so
		// a P sweep compares like with like: per-shard detail retained,
		// wall-clock CPU spanning the inner build, blocking emission
		// stamps.
		shard := res.Metrics
		shard.Emissions = nil
		res.Metrics.Shards = []Metrics{shard}
		res.Metrics.CPU = time.Since(start)
		ios := res.Metrics.ReadIOs + res.Metrics.WriteIOs
		res.Metrics.Emissions = res.Metrics.Emissions[:0]
		for _, id := range res.SkylineIDs {
			res.Metrics.Emissions = append(res.Metrics.Emissions,
				Emission{ID: id, IOs: ios, CPU: res.Metrics.CPU})
		}
		return res, nil
	}

	// An inner algorithm that consults the dyadic index would lazily
	// build it on first use; doing that here, before the workers start,
	// keeps the domains strictly read-only inside the pool. Algorithms
	// that never touch the index skip the build cost.
	if !opt.NoDyadic && p.inner.Capabilities().UsesDyadic {
		for _, dm := range ds.Domains {
			dm.EnableDyadic()
		}
	}

	shardOpt := opt
	shardOpt.Parallelism = 1
	locals := make([]*Result, shards)
	errs := make([]error, shards)

	workers := runtime.GOMAXPROCS(0)
	if workers > shards {
		workers = shards
	}
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range work {
				lo := s * len(ds.Pts) / shards
				hi := (s + 1) * len(ds.Pts) / shards
				shard := &Dataset{Pts: ds.Pts[lo:hi], Domains: ds.Domains}
				locals[s], errs[s] = p.inner.Run(shard, shardOpt)
			}
		}()
	}
	for s := 0; s < shards; s++ {
		work <- s
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Gather merge candidates in shard order (deterministic for a fixed
	// shard count) and aggregate the per-shard metrics.
	res := &Result{}
	var cands []mergeCand
	for s, lr := range locals {
		for _, id := range lr.SkylineIDs {
			cands = append(cands, mergeCand{p: byID[id], shard: s})
		}
		m := lr.Metrics
		m.Emissions = nil // local stamps are meaningless after the merge
		res.Metrics.Shards = append(res.Metrics.Shards, m)
		res.Metrics.ReadIOs += m.ReadIOs
		res.Metrics.WriteIOs += m.WriteIOs
		res.Metrics.DomChecks += m.DomChecks
		res.Metrics.NodesOpened += m.NodesOpened
		res.Metrics.NodesPruned += m.NodesPruned
		res.Metrics.PointsPruned += m.PointsPruned
		res.Metrics.BlocksSkipped += m.BlocksSkipped
		res.Metrics.BuildReadIOs += m.BuildReadIOs
		res.Metrics.BuildWriteIOs += m.BuildWriteIOs
		res.Metrics.BuildCPU += m.BuildCPU
	}

	// The merge pass is independent of the shard count — give it every
	// core even when Parallelism < GOMAXPROCS.
	checks, skips := mergeEliminate(ds.Domains, cands, runtime.GOMAXPROCS(0), opt, func(p *Point) {
		res.SkylineIDs = append(res.SkylineIDs, p.ID)
	})
	res.Metrics.DomChecks += checks
	res.Metrics.BlocksSkipped += skips

	// Blocking executor: every survivor is certified at merge end.
	res.Metrics.CPU = time.Since(start)
	ios := res.Metrics.ReadIOs + res.Metrics.WriteIOs
	for _, id := range res.SkylineIDs {
		res.Metrics.Emissions = append(res.Metrics.Emissions,
			Emission{ID: id, IOs: ios, CPU: res.Metrics.CPU})
	}
	return res, nil
}

// mergeCand is one merge candidate: a local skyline point tagged with
// its shard of origin.
type mergeCand struct {
	p     *Point
	shard int
}

// mergeScratch holds the per-merge scratch slices. Merges run on every
// parallel query and on every cluster gather, so the candidate list and
// the elimination flags are pooled rather than reallocated per call.
type mergeScratch struct {
	cands     []mergeCand
	dominated []bool
	checks    []int64
}

var mergeScratchPool = sync.Pool{New: func() any { return new(mergeScratch) }}

func getMergeScratch() *mergeScratch { return mergeScratchPool.Get().(*mergeScratch) }

// release returns the scratch to the pool. Candidate point pointers are
// cleared first so a pooled slice never pins a retired snapshot's rows.
func (sc *mergeScratch) release() {
	clear(sc.cands[:cap(sc.cands)])
	mergeScratchPool.Put(sc)
}

// candSlice returns a length-n candidate slice backed by pooled storage.
func (sc *mergeScratch) candSlice(n int) []mergeCand {
	if cap(sc.cands) < n {
		sc.cands = make([]mergeCand, n)
	}
	sc.cands = sc.cands[:n]
	return sc.cands
}

// boolSlice returns a zeroed length-n flag slice backed by pooled
// storage.
func (sc *mergeScratch) boolSlice(n int) []bool {
	if cap(sc.dominated) < n {
		sc.dominated = make([]bool, n)
	}
	sc.dominated = sc.dominated[:n]
	clear(sc.dominated)
	return sc.dominated
}

// int64Slice returns a zeroed length-n counter slice backed by pooled
// storage.
func (sc *mergeScratch) int64Slice(n int) []int64 {
	if cap(sc.checks) < n {
		sc.checks = make([]int64, n)
	}
	sc.checks = sc.checks[:n]
	clear(sc.checks)
	return sc.checks
}

// mergeEliminate runs the final elimination pass over the local-skyline
// union: candidate i survives unless a candidate from another shard
// dominates it (same-shard pairs are skipped — a shard's local skyline
// is already mutually non-dominated). The pass is itself data-parallel:
// workers own strided candidate index sets and only write their own
// slots, and candidate order is preserved among survivors, calling emit
// for each in order. Exact duplicates never dominate each other, so all
// copies of a duplicated skyline point survive, matching
// NaiveSkylineUnder. Returns the dominance-check and block-skip counts.
func mergeEliminate(domains []*poset.Domain, cands []mergeCand, workers int, opt Options, emit func(*Point)) (int64, int64) {
	sc := getMergeScratch()
	defer sc.release()
	dominated, checks, skips := eliminateDominated(domains, cands, workers, sc, opt.NoKernel, opt.ClosureBudget)
	for i, mc := range cands {
		if !dominated[i] {
			emit(mc.p)
		}
	}
	return checks, skips
}

// MergeSurvivors is the same elimination pass over arbitrary tagged
// candidates, returning the indexes of survivors in input order — the
// cluster coordinator's cross-process merge reuses the in-process pass
// (and its worker parallelism) instead of re-deriving it. pts[i]
// originates from shard[i]; same-shard pairs are skipped, so each
// shard's list must itself be a skyline (mutually non-dominated), which
// shard query responses are by construction. Shard tags are small
// non-negative integers. The pass runs on the dominance kernel;
// MergeSurvivorsRef is the scalar reference.
func MergeSurvivors(domains []*poset.Domain, pts []Point, shard []int, workers int) []int {
	return mergeSurvivors(domains, pts, shard, workers, false)
}

// MergeSurvivorsRef is MergeSurvivors on the scalar *Point/interval
// reference path — the kernel-off leg of differential harnesses and
// the before side of the kernel benchmarks.
func MergeSurvivorsRef(domains []*poset.Domain, pts []Point, shard []int, workers int) []int {
	return mergeSurvivors(domains, pts, shard, workers, true)
}

func mergeSurvivors(domains []*poset.Domain, pts []Point, shard []int, workers int, noKernel bool) []int {
	sc := getMergeScratch()
	defer sc.release()
	cands := sc.candSlice(len(pts))
	for i := range pts {
		cands[i] = mergeCand{p: &pts[i], shard: shard[i]}
	}
	dominated, _, _ := eliminateDominated(domains, cands, workers, sc, noKernel, 0)
	out := make([]int, 0, len(pts))
	for i := range cands {
		if !dominated[i] {
			out = append(out, i)
		}
	}
	return out
}

// eliminateDominated marks the candidates dominated by a candidate from
// another shard, returning the flags plus the dominance-check and
// block-skip counts. The returned flag slice borrows sc's pooled
// storage and is only valid until sc is released.
func eliminateDominated(domains []*poset.Domain, cands []mergeCand, workers int, sc *mergeScratch, noKernel bool, budget int64) ([]bool, int64, int64) {
	n := len(cands)
	if n == 0 {
		return nil, 0, 0
	}
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	if !noKernel {
		return eliminateDominatedKernel(domains, cands, workers, sc, budget)
	}
	dominated := sc.boolSlice(n)
	checks := sc.int64Slice(workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var c int64
			for i := w; i < n; i += workers {
				for j := 0; j < n; j++ {
					if cands[j].shard == cands[i].shard {
						continue
					}
					c++
					if DominatesUnder(domains, cands[j].p, cands[i].p) {
						dominated[i] = true
						break
					}
				}
			}
			checks[w] = c
		}(w)
	}
	wg.Wait()
	var total int64
	for _, c := range checks {
		total += c
	}
	return dominated, total, 0
}

// eliminateDominatedKernel is the columnar/zone-map form of the merge
// elimination: candidates are loaded into one colSet per shard tag
// once, then workers probe their strided candidate sets against the
// other tags' sets (the same-shard rule), each candidate compiled once.
func eliminateDominatedKernel(domains []*poset.Domain, cands []mergeCand, workers int, sc *mergeScratch, budget int64) ([]bool, int64, int64) {
	n := len(cands)
	sets := tagSets(domains, len(cands[0].p.TO), cands, budget)
	dominated := sc.boolSlice(n)
	counters := sc.int64Slice(2 * workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pr := sets[0].newProbe()
			for i := w; i < n; i += workers {
				dominated[i] = mergeProbe(sets, cands[i], pr)
			}
			counters[w] = pr.domTests
			counters[workers+w] = pr.blockSkips
		}(w)
	}
	wg.Wait()
	var checks, skips int64
	for w := 0; w < workers; w++ {
		checks += counters[w]
		skips += counters[workers+w]
	}
	kernelDomTests.Add(checks)
	kernelBlockSkips.Add(skips)
	return dominated, checks, skips
}

// tagSets loads merge candidates into one colSet per shard tag (tags
// are small non-negative integers; a tag without candidates gets an
// empty set). Nothing is evicted from them, so they never compact.
func tagSets(domains []*poset.Domain, nTO int, cands []mergeCand, budget int64) []*colSet {
	var counts []int
	for _, mc := range cands {
		for mc.shard >= len(counts) {
			counts = append(counts, 0)
		}
		counts[mc.shard]++
	}
	sets := make([]*colSet, len(counts))
	for s, c := range counts {
		sets[s] = newColSet(domains, nTO, c, budget)
	}
	for _, mc := range cands {
		sets[mc.shard].append(mc.p.TO, mc.p.PO, mc.p.ID)
	}
	return sets
}

// mergeProbe reports whether a member of another shard's set strictly
// dominates mc. The sets share domains and budget, so the candidate is
// compiled once, by the first set, for all of them.
func mergeProbe(sets []*colSet, mc mergeCand, pr *probe) bool {
	sets[0].begin(pr, mc.p.TO, mc.p.PO, false)
	return anyOtherDominator(sets, mc.shard, pr)
}
