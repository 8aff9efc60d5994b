package plan

import (
	"math"
	"sort"
	"sync"

	"repro/internal/core"
)

// statsSample bounds the rows examined for distinct counts and the
// correlation sign; min/max always see every row.
const statsSample = 4096

// statsRefreshEvery is how many incremental Advance steps may pass
// before the sampled statistics (distinct, correlation) are recomputed
// from scratch.
const statsRefreshEvery = 16

// ColStats summarises one totally ordered column. The JSON tags are the
// GET /tables/{t}/stats wire contract.
type ColStats struct {
	Min int64 `json:"min"`
	Max int64 `json:"max"`
	// Distinct is the number of distinct values seen, saturating at
	// statsSample (an exact count below it, a floor above).
	Distinct int `json:"distinct"`
}

// POStats summarises one partially ordered column.
type POStats struct {
	// Distinct is the number of domain values actually used by rows.
	Distinct int `json:"distinct"`
	// DomainSize is the column's full domain size.
	DomainSize int `json:"domainSize"`
}

// Stats are the planner's per-table statistics: exact row count and
// TO min/max (maintained across batches), plus sampled distinct counts
// and a correlation sign refreshed periodically. Instances are
// immutable once built — Advance returns a fresh value — so snapshots
// can share them across goroutines.
type Stats struct {
	Rows int        `json:"rows"`
	TO   []ColStats `json:"to"`
	PO   []POStats  `json:"po,omitempty"`
	// CorrSign is the mean pairwise Pearson correlation over the
	// sampled TO columns: near -1 anti-correlated (large skylines),
	// near +1 correlated (tiny skylines).
	CorrSign float64 `json:"corrSign"`
	// batches counts Advance steps since the last full Analyze, driving
	// the sampled-statistics refresh policy.
	batches int
}

// Analyze computes table statistics in one pass over the rows plus a
// strided sample for distinct counts and the correlation sign.
func Analyze(ds *core.Dataset) *Stats {
	s := &Stats{Rows: len(ds.Pts)}
	nTO := ds.NumTO()
	s.TO = make([]ColStats, nTO)
	for d := range s.TO {
		s.TO[d] = ColStats{Min: math.MaxInt64, Max: math.MinInt64}
	}
	s.PO = make([]POStats, ds.NumPO())
	for d := range s.PO {
		s.PO[d].DomainSize = ds.Domains[d].Size()
	}
	for i := range ds.Pts {
		p := &ds.Pts[i]
		for d, v := range p.TO {
			if int64(v) < s.TO[d].Min {
				s.TO[d].Min = int64(v)
			}
			if int64(v) > s.TO[d].Max {
				s.TO[d].Max = int64(v)
			}
		}
	}
	if s.Rows == 0 {
		for d := range s.TO {
			s.TO[d] = ColStats{}
		}
		return s
	}
	s.resample(ds)
	return s
}

// resample recomputes the sampled statistics (distinct counts, PO usage,
// correlation sign) over a deterministic strided sample.
func (s *Stats) resample(ds *core.Dataset) {
	n := len(ds.Pts)
	stride := 1
	if n > statsSample {
		stride = n / statsSample
	}
	nTO := len(s.TO)
	distinct := make([]map[int64]struct{}, nTO)
	for d := range distinct {
		distinct[d] = make(map[int64]struct{})
	}
	poSeen := make([]map[int32]struct{}, len(s.PO))
	for d := range poSeen {
		poSeen[d] = make(map[int32]struct{})
	}
	var sample []*core.Point
	for i := 0; i < n; i += stride {
		p := &ds.Pts[i]
		sample = append(sample, p)
		for d, v := range p.TO {
			if len(distinct[d]) < statsSample {
				distinct[d][int64(v)] = struct{}{}
			}
		}
		for d, v := range p.PO {
			poSeen[d][v] = struct{}{}
		}
	}
	for d := range s.TO {
		s.TO[d].Distinct = len(distinct[d])
	}
	for d := range s.PO {
		s.PO[d].Distinct = len(poSeen[d])
	}
	s.CorrSign = corrSign(sample, nTO)
	s.batches = 0
}

// corrSign is the mean pairwise Pearson correlation across the TO
// columns of the sample.
func corrSign(sample []*core.Point, nTO int) float64 {
	if nTO < 2 || len(sample) < 3 {
		return 0
	}
	mean := make([]float64, nTO)
	for _, p := range sample {
		for d, v := range p.TO {
			mean[d] += float64(v)
		}
	}
	for d := range mean {
		mean[d] /= float64(len(sample))
	}
	var total float64
	pairs := 0
	for a := 0; a < nTO; a++ {
		for b := a + 1; b < nTO; b++ {
			var cov, va, vb float64
			for _, p := range sample {
				da := float64(p.TO[a]) - mean[a]
				db := float64(p.TO[b]) - mean[b]
				cov += da * db
				va += da * da
				vb += db * db
			}
			if va > 0 && vb > 0 {
				total += cov / math.Sqrt(va*vb)
			}
			pairs++
		}
	}
	if pairs == 0 {
		return 0
	}
	return total / float64(pairs)
}

// Advance derives the statistics of newDS, produced from oldDS by a
// batch that removed the rows marked -1 in oldToNew and appended the
// last `added` rows. The step is incremental: appended rows widen
// min/max in O(batch); a removal can only invalidate a bound when the
// removed value sits exactly on it, which triggers a full re-Analyze,
// as does the periodic sampled-statistics refresh. The receiver is not
// modified (it may be serving concurrent planners).
func (s *Stats) Advance(oldDS, newDS *core.Dataset, oldToNew []int32, added int) *Stats {
	if s == nil || len(s.TO) != newDS.NumTO() || len(s.PO) != newDS.NumPO() {
		return Analyze(newDS)
	}
	// An empty table's stats carry zeroed (not sentinel) bounds that
	// only-widening updates would wrongly inherit.
	if s.Rows == 0 {
		return Analyze(newDS)
	}
	if s.batches+1 >= statsRefreshEvery {
		return Analyze(newDS)
	}
	for oldRow, newRow := range oldToNew {
		if newRow != -1 {
			continue
		}
		p := &oldDS.Pts[oldRow]
		for d, v := range p.TO {
			if int64(v) <= s.TO[d].Min || int64(v) >= s.TO[d].Max {
				return Analyze(newDS)
			}
		}
	}
	next := &Stats{
		Rows:     len(newDS.Pts),
		TO:       append([]ColStats(nil), s.TO...),
		PO:       append([]POStats(nil), s.PO...),
		CorrSign: s.CorrSign,
		batches:  s.batches + 1,
	}
	for i := len(newDS.Pts) - added; i < len(newDS.Pts); i++ {
		p := &newDS.Pts[i]
		for d, v := range p.TO {
			if int64(v) < next.TO[d].Min {
				next.TO[d].Min = int64(v)
			}
			if int64(v) > next.TO[d].Max {
				next.TO[d].Max = int64(v)
			}
		}
	}
	if next.Rows == 0 {
		return Analyze(newDS)
	}
	return next
}

// ewma is an exponentially weighted moving average with a warm-up mean.
type ewma struct {
	v float64
	n int64
}

const ewmaAlpha = 0.3

func (e *ewma) observe(x float64) {
	e.n++
	if e.n == 1 {
		e.v = x
		return
	}
	e.v = (1-ewmaAlpha)*e.v + ewmaAlpha*x
}

// FullVariant is the variant key of full-dimensional queries — the key
// ObserveSkyline and SkylineFrac use when no subspace is involved.
const FullVariant = "full"

// Learned is the feedback half of the statistics: per-variant skyline
// fractions observed from past runs. One Learned is shared across a
// table's snapshots (it describes the table, not one version) and is
// safe for concurrent use.
//
// Skyline fractions are kept per *variant* — one EWMA per kept-
// dimension set (FullVariant for full-dimensional queries) — because a
// 2-dim subspace skyline and the full skyline of the same table can
// differ by orders of magnitude; a single global EWMA under a mixed
// workload drags every estimate toward whichever variant ran last.
type Learned struct {
	mu      sync.Mutex
	skyFrac map[string]*ewma // variant key -> skyline-fraction EWMA
}

// NewLearned returns an empty feedback store.
func NewLearned() *Learned {
	return &Learned{skyFrac: make(map[string]*ewma)}
}

// ObserveSkyline records a completed skyline computation of the given
// variant (a kept-dimension key; FullVariant for full-dimensional
// queries) over n rows yielding m skyline rows.
func (l *Learned) ObserveSkyline(variant string, n, m int) {
	if l == nil || n <= 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.skyFrac[variant]
	if e == nil {
		e = &ewma{}
		l.skyFrac[variant] = e
	}
	e.observe(float64(m) / float64(n))
}

// SkylineFrac returns the observed skyline fraction EWMA of the given
// variant; ok is false before the variant's first observation.
func (l *Learned) SkylineFrac(variant string) (frac float64, ok bool) {
	if l == nil {
		return 0, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if e := l.skyFrac[variant]; e != nil && e.n > 0 {
		return e.v, true
	}
	return 0, false
}

// VariantFrac is one per-variant skyline-fraction entry of the portable
// form.
type VariantFrac struct {
	Key  string  `json:"key"`
	Frac float64 `json:"frac"`
	N    int64   `json:"n"`
}

// LearnedState is the portable form of Learned, as persisted in store
// snapshots and served by /tables/{t}/stats. SkyFrac/SkyFracN carry the
// FullVariant EWMA — the storage snapshot format persists only that one
// (the format predates per-variant fractions; other variants are
// relearned after recovery) — while Variants lists every variant,
// sorted by key, for JSON consumers.
type LearnedState struct {
	SkyFrac  float64       `json:"skyFrac"`
	SkyFracN int64         `json:"skyFracN"`
	Variants []VariantFrac `json:"variants,omitempty"`
}

// Export snapshots the feedback store.
func (l *Learned) Export() LearnedState {
	if l == nil {
		return LearnedState{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var st LearnedState
	if e := l.skyFrac[FullVariant]; e != nil {
		st.SkyFrac, st.SkyFracN = e.v, e.n
	}
	for key, e := range l.skyFrac {
		if e.n > 0 {
			st.Variants = append(st.Variants, VariantFrac{Key: key, Frac: e.v, N: e.n})
		}
	}
	sort.Slice(st.Variants, func(i, j int) bool { return st.Variants[i].Key < st.Variants[j].Key })
	return st
}

// ImportLearned rebuilds a feedback store from its portable form.
func ImportLearned(st LearnedState) *Learned {
	l := NewLearned()
	if st.SkyFracN > 0 {
		l.skyFrac[FullVariant] = &ewma{v: st.SkyFrac, n: st.SkyFracN}
	}
	for _, v := range st.Variants {
		l.skyFrac[v.Key] = &ewma{v: v.Frac, n: v.N}
	}
	return l
}

// MergeStats combines per-partition statistics into statistics of the
// union of the partitions' rows — the cluster coordinator's view over
// its shards. Bounds union, distinct counts take the maximum (a floor:
// value sets may overlap arbitrarily), and the correlation sign is the
// row-weighted mean. Partitions with zero rows are skipped (their
// zeroed bounds describe no rows). Returns nil when no partition
// carries rows or the shapes disagree.
func MergeStats(parts ...*Stats) *Stats {
	var out *Stats
	for _, p := range parts {
		if p == nil || p.Rows == 0 {
			continue
		}
		if out == nil {
			out = &Stats{
				Rows:     p.Rows,
				TO:       append([]ColStats(nil), p.TO...),
				PO:       append([]POStats(nil), p.PO...),
				CorrSign: p.CorrSign * float64(p.Rows),
			}
			continue
		}
		if len(p.TO) != len(out.TO) || len(p.PO) != len(out.PO) {
			return nil
		}
		for d, c := range p.TO {
			if c.Min < out.TO[d].Min {
				out.TO[d].Min = c.Min
			}
			if c.Max > out.TO[d].Max {
				out.TO[d].Max = c.Max
			}
			if c.Distinct > out.TO[d].Distinct {
				out.TO[d].Distinct = c.Distinct
			}
		}
		for d, c := range p.PO {
			if c.Distinct > out.PO[d].Distinct {
				out.PO[d].Distinct = c.Distinct
			}
		}
		out.CorrSign += p.CorrSign * float64(p.Rows)
		out.Rows += p.Rows
	}
	if out != nil {
		out.CorrSign /= float64(out.Rows)
	}
	return out
}
