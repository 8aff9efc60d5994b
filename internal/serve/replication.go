package serve

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/store"
)

// Primary-side replication endpoints and the follower-side apply path.
//
// A primary ships its committed state in two forms, both reusing the
// storage encodings verbatim:
//
//	GET /tables/{t}/replica/snapshot   the serving snapshot, columnar
//	                                   (EncodeSnapshot) — the follower
//	                                   bootstrap seed
//	GET /tables/{t}/replica/log?after=V
//	                                   WAL frames of every committed
//	                                   mutation with version > V, in the
//	                                   on-disk framing (WALHeader +
//	                                   length-prefixed, CRC-checked
//	                                   records) — the tail
//
// The log endpoint answers 410 Gone when version V+1 was compacted
// away by a checkpoint; the follower then re-seeds from the snapshot
// endpoint and resumes tailing from the seeded version. Followers
// apply records through the same applyBatch path as client batches
// (local WAL append before publish, checkpoint policy), so a follower
// is itself durable and restartable.

// ErrReplicaGap reports a replication tail out of sync with the local
// table version — the follower must re-seed from the primary snapshot.
var ErrReplicaGap = errors.New("replica version gap")

// handleReplicaSnapshot answers GET /tables/{name}/replica/snapshot.
// The bytes are rendered from the in-memory serving snapshot (no store
// needed), so they always describe exactly the version readers see,
// planner feedback included.
func (s *Server) handleReplicaSnapshot(w http.ResponseWriter, r *http.Request, e *tableEntry) {
	snap := e.current()
	img, err := e.storeSnapshot(snap)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	b, err := store.EncodeSnapshot(img)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Tss-Version", strconv.FormatInt(snap.version, 10))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}

// handleReplicaLog answers GET /tables/{name}/replica/log?after=V with
// the committed WAL frames past version V. Only a durable node has a
// log to ship.
func (s *Server) handleReplicaLog(w http.ResponseWriter, r *http.Request, e *tableEntry) {
	if s.store == nil {
		writeError(w, http.StatusConflict,
			fmt.Errorf("replication log needs a durable primary (start it with -data-dir)"))
		return
	}
	after := int64(0)
	if v := r.URL.Query().Get("after"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad after=%q: %w", v, err))
			return
		}
		after = n
	}
	muts, err := s.store.ReadLog(e.name, after)
	if errors.Is(err, store.ErrCompacted) {
		// The suffix was absorbed into the snapshot: tell the follower to
		// re-seed rather than pretending the log starts at V+1.
		writeError(w, http.StatusGone, err)
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("%w: read log: %v", errStorage, err))
		return
	}
	b := store.WALHeader()
	for _, m := range muts {
		b = store.AppendWALRecord(b, m)
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}

// Table returns one catalog entry's info (the in-process form of GET
// /tables/{name}; the follower loop reads local versions through it).
func (s *Server) Table(name string) (TableInfo, bool) {
	e, ok := s.table(name)
	if !ok {
		return TableInfo{}, false
	}
	return e.info(), true
}

// ImportSnapshot installs (or replaces) a table from a decoded storage
// snapshot at the snapshot's version — the follower bootstrap path.
// With a local store attached the seed is persisted first, so a
// restarted follower resumes from it instead of re-bootstrapping from
// zero.
func (s *Server) ImportSnapshot(name string, snap *store.Snapshot) (TableInfo, error) {
	spec, err := specFromStore(name, snap)
	if err != nil {
		return TableInfo{}, err
	}
	e, err := newTableEntry(spec, s.cacheCap, snap.Version)
	if err != nil {
		return TableInfo{}, err
	}
	if s.store != nil {
		if err := s.store.SaveSnapshot(name, snap); err != nil {
			return TableInfo{}, fmt.Errorf("%w: persist snapshot: %v", errStorage, err)
		}
	}
	s.mu.Lock()
	s.tables[name] = e
	s.mu.Unlock()
	return e.info(), nil
}

// ApplyReplicated applies one shipped WAL record through the normal
// batch path (local WAL append before publish, checkpoint policy). The
// record's version must be exactly one past the table's current
// version; anything else is ErrReplicaGap and the caller re-seeds.
// Replication applies are expected to be serialized by the caller (one
// follower loop); the post-apply version check catches anything that
// slipped past regardless.
func (s *Server) ApplyReplicated(name string, m *store.Mutation) error {
	e, ok := s.table(name)
	if !ok {
		return fmt.Errorf("no table %q", name)
	}
	if cur := e.current().version; m.Version != cur+1 {
		return fmt.Errorf("%w: record version %d against local version %d", ErrReplicaGap, m.Version, cur)
	}
	req, err := e.batchFromMutation(m)
	if err != nil {
		return err
	}
	resp, err := s.applyBatch(e, req)
	if err != nil {
		return err
	}
	if resp.Version != m.Version {
		return fmt.Errorf("%w: applied as version %d, record says %d", ErrReplicaGap, resp.Version, m.Version)
	}
	return nil
}

// batchFromMutation renders a WAL record back into wire form — the
// inverse of mutationRecord, value ids resolved to labels so the
// replicated batch walks the exact same validation as a client's.
func (e *tableEntry) batchFromMutation(m *store.Mutation) (BatchRequest, error) {
	var req BatchRequest
	for _, r := range m.Remove {
		req.Remove = append(req.Remove, int(r))
	}
	if len(m.Add.TO) != e.schema.NumTO() || len(m.Add.PO) != e.schema.NumPO() {
		return BatchRequest{}, fmt.Errorf("mutation has %d TO / %d PO columns, table has %d / %d",
			len(m.Add.TO), len(m.Add.PO), e.schema.NumTO(), e.schema.NumPO())
	}
	n := m.Add.N()
	for i := 0; i < n; i++ {
		row := RowSpec{TO: make([]int64, len(m.Add.TO))}
		for c, col := range m.Add.TO {
			row.TO[c] = col[i]
		}
		for c, col := range m.Add.PO {
			label, ok := e.schema.POValueLabel(c, int(col[i]))
			if !ok {
				return BatchRequest{}, fmt.Errorf("PO value id %d outside column %d's domain", col[i], c)
			}
			row.PO = append(row.PO, label)
		}
		req.Add = append(req.Add, row)
	}
	return req, nil
}
