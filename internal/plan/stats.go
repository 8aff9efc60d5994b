package plan

import (
	"math"

	"repro/internal/core"
)

// ColStats bounds one totally ordered column. The JSON tags are the
// GET /tables/{t}/stats wire contract.
type ColStats struct {
	Min int64 `json:"min"`
	Max int64 `json:"max"`
}

// Stats are a table's row count and TO min/max, maintained across
// batches — what shard pruning and stream certification read on the
// coordinator. Instances are immutable once built (Advance returns a
// fresh value), so snapshots can share them across goroutines.
type Stats struct {
	Rows int        `json:"rows"`
	TO   []ColStats `json:"to"`
}

// Analyze computes table statistics in one pass over the rows.
func Analyze(ds *core.Dataset) *Stats {
	s := &Stats{Rows: len(ds.Pts), TO: make([]ColStats, ds.NumTO())}
	if s.Rows == 0 {
		return s
	}
	for d := range s.TO {
		s.TO[d] = ColStats{Min: math.MaxInt64, Max: math.MinInt64}
	}
	for i := range ds.Pts {
		s.widen(&ds.Pts[i])
	}
	return s
}

// widen extends the bounds to cover p.
func (s *Stats) widen(p *core.Point) {
	for d, v := range p.TO {
		if int64(v) < s.TO[d].Min {
			s.TO[d].Min = int64(v)
		}
		if int64(v) > s.TO[d].Max {
			s.TO[d].Max = int64(v)
		}
	}
}

// Advance derives the statistics of newDS, produced from oldDS by a
// batch that removed the rows marked -1 in oldToNew and appended the
// last `added` rows. The step is incremental: appended rows widen
// min/max in O(batch); a removal can only invalidate a bound when the
// removed value sits exactly on it, which triggers a full re-Analyze.
// The receiver is not modified (it may be serving concurrent readers).
func (s *Stats) Advance(oldDS, newDS *core.Dataset, oldToNew []int32, added int) *Stats {
	// An empty table's stats carry zeroed (not sentinel) bounds that
	// only-widening updates would wrongly inherit.
	if s == nil || len(s.TO) != newDS.NumTO() || s.Rows == 0 || len(newDS.Pts) == 0 {
		return Analyze(newDS)
	}
	for oldRow, newRow := range oldToNew {
		if newRow != -1 {
			continue
		}
		for d, v := range oldDS.Pts[oldRow].TO {
			if int64(v) <= s.TO[d].Min || int64(v) >= s.TO[d].Max {
				return Analyze(newDS)
			}
		}
	}
	next := &Stats{Rows: len(newDS.Pts), TO: append([]ColStats(nil), s.TO...)}
	for i := len(newDS.Pts) - added; i < len(newDS.Pts); i++ {
		next.widen(&newDS.Pts[i])
	}
	return next
}

// Learned and NewLearned are inert: the planner keeps no feedback.
// They stay declared only because the benchmark module still builds
// plan.Env{Stats: …, Learned: plan.NewLearned()} at bench/ladder.go:129
// and bench/probe.go:44, its only users.
type Learned struct{}

// NewLearned returns an empty Learned; see Learned.
func NewLearned() *Learned { return &Learned{} }

// MergeStats combines per-partition statistics into statistics of the
// union of the partitions' rows — the cluster coordinator's /stats view
// over its shards: rows sum and bounds union. Partitions with zero rows
// are skipped (their zeroed bounds describe no rows). Returns nil when
// no partition carries rows or the shapes disagree.
func MergeStats(parts ...*Stats) *Stats {
	var out *Stats
	for _, p := range parts {
		if p == nil || p.Rows == 0 {
			continue
		}
		if out == nil {
			out = &Stats{Rows: p.Rows, TO: append([]ColStats(nil), p.TO...)}
			continue
		}
		if len(p.TO) != len(out.TO) {
			return nil
		}
		for d, c := range p.TO {
			out.TO[d].Min = min(out.TO[d].Min, c.Min)
			out.TO[d].Max = max(out.TO[d].Max, c.Max)
		}
		out.Rows += p.Rows
	}
	return out
}
