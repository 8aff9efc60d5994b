// Package store is the durable, versioned storage engine behind the
// skyline server: tables persist as binary columnar snapshots (TO
// columns, PO value-id columns and the preference DAGs of the PO
// domains) plus a length-prefixed, CRC-checked write-ahead log of
// batched mutations. A table's durable state is always
//
//	snapshot(version v) + WAL records v+1, v+2, …, v+k
//
// and loading replays the log over the snapshot, recovering the state
// as of the last logged batch. Checkpointing rewrites the snapshot at
// the current version and truncates the log.
//
// Two engines implement the Store interface: Mem (tests, ephemeral
// servers) and Disk (one directory per table, atomic snapshot
// replacement via rename, optional fsync-per-append). The serving
// layer appends each mutation to the WAL *before* publishing the new
// table snapshot to readers, so every acknowledged version is
// recoverable.
package store

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotFound is returned when a table has no persisted state.
var ErrNotFound = errors.New("store: table not found")

// ErrCorrupt is returned when persisted bytes fail structural or
// checksum validation — including a truncated or torn WAL tail.
var ErrCorrupt = errors.New("store: corrupt data")

// ErrCompacted is returned by ReadLog when the requested log suffix
// was absorbed into the snapshot by a checkpoint and truncated away —
// the reader is too far behind to tail the log and must re-seed from
// the snapshot.
var ErrCompacted = errors.New("store: log compacted past requested version")

// OrderSchema describes one partially ordered column: its value labels
// plus the preference DAG edges as (better, worse) value indexes.
type OrderSchema struct {
	Name   string
	Values []string
	Edges  [][2]int32
}

// Schema fixes a table's shape: the totally ordered column names and
// the PO column descriptions.
type Schema struct {
	TOColumns []string
	Orders    []OrderSchema
}

// Rows is columnar row storage: TO[c][i] is row i's value in TO column
// c, PO[c][i] its value id in PO column c. All columns have equal
// length.
type Rows struct {
	TO [][]int64
	PO [][]int32
}

// N returns the row count.
func (r *Rows) N() int {
	if len(r.TO) > 0 {
		return len(r.TO[0])
	}
	if len(r.PO) > 0 {
		return len(r.PO[0])
	}
	return 0
}

// check verifies columnar shape against a schema.
func (r *Rows) check(s *Schema) error {
	if len(r.TO) != len(s.TOColumns) || len(r.PO) != len(s.Orders) {
		return fmt.Errorf("%w: rows have %d TO / %d PO columns, schema %d / %d",
			ErrCorrupt, len(r.TO), len(r.PO), len(s.TOColumns), len(s.Orders))
	}
	n := r.N()
	for _, col := range r.TO {
		if len(col) != n {
			return fmt.Errorf("%w: ragged TO columns", ErrCorrupt)
		}
	}
	for c, col := range r.PO {
		if len(col) != n {
			return fmt.Errorf("%w: ragged PO columns", ErrCorrupt)
		}
		size := int32(len(s.Orders[c].Values))
		for _, v := range col {
			if v < 0 || v >= size {
				return fmt.Errorf("%w: PO value id %d outside domain of %d values", ErrCorrupt, v, size)
			}
		}
	}
	return nil
}

// AlgoCostRecord is one algorithm's entry of an old snapshot's stats
// section (see TableStatsRecord): the observed/predicted cost multiplier
// a planner once kept for a named algorithm and the number of
// observations behind it.
type AlgoCostRecord struct {
	Name string
	Mult float64
	N    int64
}

// TableStatsRecord is the stats section of a format-2 snapshot: a
// skyline-fraction EWMA and per-algorithm cost corrections that earlier
// planners learned from past runs. No build writes it any more — the
// planner estimates nothing, so it has nothing to learn — and recovery
// ignores it. It is decoded, and checked, only so that snapshots written
// with it still load and still re-encode to their own bytes. Algos must
// be sorted by strictly ascending name — the canonical-encoding
// requirement.
type TableStatsRecord struct {
	SkyFrac  float64
	SkyFracN int64
	Algos    []AlgoCostRecord
}

// check validates a stats record structurally: strictly name-sorted
// algos (the canonical-encoding requirement), non-negative counts, and
// finite in-range floats — a snapshot that breaks them is corrupt,
// whether or not anything reads the record.
func (st *TableStatsRecord) check() error {
	if st.SkyFracN < 0 {
		return fmt.Errorf("%w: negative stats observation count", ErrCorrupt)
	}
	if math.IsNaN(st.SkyFrac) || st.SkyFrac < 0 || st.SkyFrac > 1 {
		return fmt.Errorf("%w: stats skyline fraction %v outside [0, 1]", ErrCorrupt, st.SkyFrac)
	}
	for i, a := range st.Algos {
		if a.N < 0 {
			return fmt.Errorf("%w: negative stats observation count", ErrCorrupt)
		}
		if math.IsNaN(a.Mult) || math.IsInf(a.Mult, 0) || a.Mult < 0 {
			return fmt.Errorf("%w: stats multiplier %v for %q out of range", ErrCorrupt, a.Mult, a.Name)
		}
		if i > 0 && st.Algos[i-1].Name >= a.Name {
			return fmt.Errorf("%w: stats algos not strictly sorted by name", ErrCorrupt)
		}
	}
	return nil
}

// Snapshot is a table's full state at one version.
type Snapshot struct {
	Version int64
	Schema  Schema
	Rows    Rows
	// CacheCapacity preserves the table's dynamic-cache sizing across
	// restarts (0 = server default).
	CacheCapacity int
	// Stats is an old snapshot's stats section, when it has one: no
	// build writes it and recovery ignores it (see TableStatsRecord).
	Stats *TableStatsRecord
	// formatV1 marks a snapshot decoded from the pre-planner format 1
	// (no stats section). Re-encoding reproduces the original bytes —
	// the canonical-encoding contract — while fresh snapshots always
	// write format 2; a checkpoint therefore upgrades the file.
	formatV1 bool
}

// Mutation is one WAL record: the batch that produced Version from the
// previous version. Remove lists row indexes of the previous version
// (applied first, survivors renumbered in order); Add holds the
// appended rows in the snapshot's column order.
type Mutation struct {
	Version int64
	Remove  []int32
	Add     Rows
}

// Store persists named tables. Implementations are safe for concurrent
// use on distinct tables; per-table callers must serialize (the serving
// layer's per-table write lock does).
type Store interface {
	// List returns the names of persisted tables, sorted.
	List() ([]string, error)
	// Load returns name's snapshot with all logged mutations replayed,
	// i.e. the state as of the last acknowledged batch. ErrNotFound if
	// the table was never saved; ErrCorrupt (wrapped) on damaged bytes.
	Load(name string) (*Snapshot, error)
	// SaveSnapshot durably replaces name's snapshot and truncates its
	// WAL — a checkpoint. The replacement is atomic: a crash leaves
	// either the old state (snapshot + log) or the new snapshot.
	SaveSnapshot(name string, s *Snapshot) error
	// AppendMutation durably appends one batch to name's WAL. The
	// mutation's version must be exactly one past the current state.
	AppendMutation(name string, m *Mutation) error
	// LogSize returns the current WAL size in bytes — the checkpoint
	// policy's input.
	LogSize(name string) (int64, error)
	// ReadLog returns the logged mutations with Version > after, in
	// order — the replication log tail. ErrCompacted (wrapped) when
	// version after+1 is no longer in the log because a checkpoint
	// absorbed it (the caller must re-seed from the snapshot);
	// ErrNotFound if the table was never saved.
	ReadLog(name string, after int64) ([]*Mutation, error)
	// SaveMeta durably stores a metadata blob under key, beside the
	// tables but outside any table's namespace (the cluster coordinator
	// persists its catalog here). The write is atomic and the blob
	// CRC-framed like the table files; the payload is opaque.
	SaveMeta(key string, data []byte) error
	// LoadMeta returns the blob stored under key. ErrNotFound if
	// absent; ErrCorrupt (wrapped) on damaged bytes.
	LoadMeta(key string) ([]byte, error)
	// Drop removes every trace of the table.
	Drop(name string) error
	// Close releases resources; the store must not be used afterwards.
	Close() error
}

// readLogTail collects the WAL records with Version > after from a WAL
// image whose snapshot base version is snapVersion — the log-tail read
// shared by both engines. The replay is recover-mode: the image may be
// read concurrently with an in-flight append, so a torn final frame is
// an unacknowledged (or still-writing) record that simply isn't part of
// this tail yet. A gap — after+1 neither covered by the snapshot being
// at or below `after` nor present as a record — means a checkpoint
// compacted the suffix away.
func readLogTail(snapVersion int64, walImg []byte, after int64) ([]*Mutation, error) {
	current := snapVersion
	var out []*Mutation
	if len(walImg) > 0 {
		if _, err := replayWALRecover(walImg, func(m *Mutation) error {
			if m.Version > current {
				current = m.Version
			}
			if m.Version > after {
				out = append(out, m)
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}
	if after >= current {
		return nil, nil // caught up (or ahead): nothing to ship
	}
	if len(out) == 0 || out[0].Version != after+1 {
		return nil, fmt.Errorf("%w: need version %d", ErrCompacted, after+1)
	}
	return out, nil
}

// applyMutation replays one WAL record onto columnar rows.
func applyMutation(s *Snapshot, m *Mutation) error {
	if m.Version != s.Version+1 {
		return fmt.Errorf("%w: WAL version %d after snapshot version %d", ErrCorrupt, m.Version, s.Version)
	}
	n := s.Rows.N()
	drop := make([]bool, n)
	for _, r := range m.Remove {
		if r < 0 || int(r) >= n {
			return fmt.Errorf("%w: WAL removes row %d of %d", ErrCorrupt, r, n)
		}
		drop[r] = true
	}
	if err := m.Add.check(&s.Schema); err != nil {
		return err
	}
	filter64 := func(col []int64) []int64 {
		out := col[:0:0]
		for i, v := range col {
			if !drop[i] {
				out = append(out, v)
			}
		}
		return out
	}
	filter32 := func(col []int32) []int32 {
		out := col[:0:0]
		for i, v := range col {
			if !drop[i] {
				out = append(out, v)
			}
		}
		return out
	}
	for c := range s.Rows.TO {
		s.Rows.TO[c] = append(filter64(s.Rows.TO[c]), m.Add.TO[c]...)
	}
	for c := range s.Rows.PO {
		s.Rows.PO[c] = append(filter32(s.Rows.PO[c]), m.Add.PO[c]...)
	}
	s.Version = m.Version
	return nil
}
