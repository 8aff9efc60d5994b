package core

import (
	"context"
	"time"

	"repro/internal/rtree"
)

// DefaultIOCost is the simulated cost of one page access, matching the
// paper's evaluation ("after charging 5 msec for each IO", §VI-B).
const DefaultIOCost = 5 * time.Millisecond

// DefaultPageSize is the simulated disk page size in bytes.
const DefaultPageSize = 4096

// Options tunes the algorithms. The zero value selects the paper's
// defaults via withDefaults.
type Options struct {
	// PageSize is the simulated page size used to derive R-tree fan-out
	// and data-file page counts. Default 4096.
	PageSize int
	// Capacity overrides the derived R-tree node capacity when > 0
	// (used by tests reproducing the paper's capacity-3 examples).
	Capacity int
	// UseMemTree enables the in-memory R-tree over virtual points for
	// t-dominance checks (paper §IV-B second optimisation). It is a
	// paper-figure knob: off by default — as in the paper's headline
	// experiments, which run TSS without it "for fairness" — and off on
	// every serving path, because it trades 7–54× fewer counted checks
	// for 26–70× more wall-clock (one R-tree insert per interval
	// combination of every accepted point). Only internal/exp's figures
	// and ablations, and tests, turn it on.
	UseMemTree bool
	// NoDyadic disables the dyadic-range interval index (paper §IV-B
	// first optimisation), which is on by default (cheap, pure win) — the
	// ablation switch.
	NoDyadic bool
	// StabOnly makes point-level t-dominance checks query only the
	// interval run containing the candidate value's own postorder
	// position, which is provably equivalent to checking every interval
	// (ablation of the paper-faithful ∀-interval check).
	StabOnly bool
	// PrecomputedLocal makes dTSS answer queries from precomputed
	// per-group local skylines instead of the per-group R-trees (paper
	// §V-B pre-processing optimisation).
	PrecomputedLocal bool
	// BufferPages attaches an LRU page buffer of that many pages to the
	// query's index reads (0 = unbuffered, the paper's headline
	// configuration). §VI-B points out that buffering shifts TSS from
	// IO-bound towards CPU-bound, widening its lead over SDC+.
	BufferPages int
	// PackedRoots stores the roots of dTSS's per-group trees in
	// contiguous pages read sequentially at query start, instead of one
	// page read per group root — the remedy §VI-C proposes for large
	// PO domains, where dTSS "must visit a large number of root nodes".
	PackedRoots bool
	// Parallelism is the shard count of the partition-and-merge
	// executor (Parallel). 0 selects runtime.GOMAXPROCS(0); sequential
	// algorithms ignore it.
	Parallelism int
	// NoKernel disables the dominance kernel (bitset closure, columnar
	// elimination, block zone maps), forcing the scalar *Point/interval
	// reference path — the ablation and differential-harness switch. For
	// sTSS and dTSS it selects the bare candidate-list checker, whose
	// counted checks are the ones the paper's figures report.
	NoKernel bool
	// ClosureBudget is the per-domain memory budget in bytes for the
	// transitive-closure bitset the kernel promotes to the serving
	// path. 0 selects poset.DefaultClosureBudget; negative disables the
	// closure entirely (kernel loops fall back to interval/ordinal
	// forms).
	ClosureBudget int64
	// Ctx cancels a run cooperatively: every algorithm polls
	// it every dynCtxCheckEvery steps of its scan loops (Parallel: its
	// shards do) and abandons the scan, and Algorithm.Run then returns
	// the context's error, not the partial result. Nil never cancels.
	Ctx context.Context
}

// canceled polls o.Ctx on every dynCtxCheckEvery-th step of a scan loop.
func (o *Options) canceled(step int) bool {
	return o.Ctx != nil && step%dynCtxCheckEvery == 0 && o.Ctx.Err() != nil
}

func (o Options) withDefaults() Options {
	if o.PageSize == 0 {
		o.PageSize = DefaultPageSize
	}
	return o
}

// capacityFor derives the R-tree node capacity for an index of the
// given dimensionality.
func (o Options) capacityFor(dims int) int {
	if o.Capacity > 0 {
		return o.Capacity
	}
	return rtree.CapacityForPage(o.PageSize, dims)
}

// dataPages returns the number of pages the raw data file occupies,
// assuming 4 bytes per attribute plus a 4-byte id per record. Used to
// charge the dynamic SDC+ rebuild's external sort.
func (o Options) dataPages(n, attrs int) int64 {
	rec := int64(4 * (attrs + 1))
	bytes := int64(n) * rec
	pages := bytes / int64(o.PageSize)
	if bytes%int64(o.PageSize) != 0 {
		pages++
	}
	if pages == 0 && n > 0 {
		pages = 1
	}
	return pages
}

// Emission records one skyline point being output, with the virtual
// cost spent up to that moment — the raw material of the paper's
// progressiveness experiment (Figure 11).
type Emission struct {
	ID  int32
	IOs int64         // query-phase page accesses so far (reads+writes)
	CPU time.Duration // query-phase CPU so far
}

// Time converts an emission to virtual time at the given IO cost.
func (e Emission) Time(ioCost time.Duration) time.Duration {
	return e.CPU + time.Duration(e.IOs)*ioCost
}

// Metrics aggregates the evaluation counters of one run. Query-phase
// and build-phase costs are kept separate: the static experiments charge
// queries only (indexes are prebuilt), while the dynamic SDC+ baseline
// folds its per-query rebuild into the query cost (paper §VI-C).
type Metrics struct {
	ReadIOs   int64 // query-phase page reads
	WriteIOs  int64 // query-phase page writes (rebuilds, runs)
	DomChecks int64 // pairwise dominance-check operations

	NodesOpened  int64 // R-tree nodes expanded
	NodesPruned  int64 // MBBs discarded by dominance
	PointsPruned int64 // points discarded by dominance

	// BlocksSkipped counts zone-map blocks the dominance kernel skipped
	// without scanning (0 on the scalar reference path).
	BlocksSkipped int64

	CPU time.Duration // measured query-phase CPU

	BuildReadIOs  int64
	BuildWriteIOs int64
	BuildCPU      time.Duration

	Emissions []Emission

	// Shards holds the per-shard metrics of a partition-and-merge run
	// (nil for sequential runs). The top-level counters are the
	// aggregates across shards plus the merge pass; the top-level CPU is
	// the executor's wall-clock time, while each shard's CPU is the time
	// its own worker spent.
	Shards []Metrics
}

// TotalTime is the paper's headline metric: measured CPU plus the
// simulated IO charge.
func (m *Metrics) TotalTime(ioCost time.Duration) time.Duration {
	return m.CPU + time.Duration(m.ReadIOs+m.WriteIOs)*ioCost
}

// CPUShare returns CPU / total time — the percentage annotated on the
// markers of the paper's Figure 7.
func (m *Metrics) CPUShare(ioCost time.Duration) float64 {
	tot := m.TotalTime(ioCost)
	if tot == 0 {
		return 0
	}
	return float64(m.CPU) / float64(tot)
}

// MetricsExport is the flat, JSON-ready view of a run's Metrics that
// the serving layer attaches to query responses: plain counters plus
// derived seconds at a fixed IO cost, no nested durations.
type MetricsExport struct {
	ReadIOs       int64   `json:"readIOs"`
	WriteIOs      int64   `json:"writeIOs"`
	DomChecks     int64   `json:"domChecks"`
	NodesOpened   int64   `json:"nodesOpened,omitempty"`
	NodesPruned   int64   `json:"nodesPruned,omitempty"`
	PointsPruned  int64   `json:"pointsPruned,omitempty"`
	BlocksSkipped int64   `json:"blocksSkipped,omitempty"`
	CPUSeconds    float64 `json:"cpuSeconds"`
	TotalSeconds  float64 `json:"totalSeconds"`
	Emissions     int     `json:"emissions,omitempty"`
	Shards        int     `json:"shards,omitempty"`
}

// Export flattens the metrics for transport, charging IOs at ioCost
// (pass DefaultIOCost for the paper's 5 ms model).
func (m *Metrics) Export(ioCost time.Duration) MetricsExport {
	return MetricsExport{
		ReadIOs:       m.ReadIOs,
		WriteIOs:      m.WriteIOs,
		DomChecks:     m.DomChecks,
		NodesOpened:   m.NodesOpened,
		NodesPruned:   m.NodesPruned,
		PointsPruned:  m.PointsPruned,
		BlocksSkipped: m.BlocksSkipped,
		CPUSeconds:    m.CPU.Seconds(),
		TotalSeconds:  m.TotalTime(ioCost).Seconds(),
		Emissions:     len(m.Emissions),
		Shards:        len(m.Shards),
	}
}

// Result is a completed skyline computation: the skyline point ids in
// emission order plus the run's metrics. FromCache marks a dynamic
// query answered from the past-result cache (§V-B) without touching
// any index.
type Result struct {
	SkylineIDs []int32
	Metrics    Metrics
	FromCache  bool
}

// emitClock stamps emissions with the current virtual cost.
type emitClock struct {
	io    *rtree.IOCounter
	extra *int64 // additional charged IOs not tracked by io (may be nil)
	start time.Time
}

func newEmitClock(io *rtree.IOCounter) *emitClock {
	return &emitClock{io: io, start: time.Now()}
}

func (c *emitClock) ios() int64 {
	n := c.io.Reads + c.io.Writes
	if c.extra != nil {
		n += *c.extra
	}
	return n
}

func (c *emitClock) emission(id int32) Emission {
	return Emission{ID: id, IOs: c.ios(), CPU: time.Since(c.start)}
}

func (c *emitClock) elapsed() time.Duration { return time.Since(c.start) }
