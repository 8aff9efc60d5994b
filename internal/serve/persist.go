package serve

import (
	"fmt"

	"repro/internal/store"
)

// Conversions between the serving layer's wire/table types and the
// storage engine's columnar records. The storage schema keeps PO
// values as integer ids into each order's label list, so the label
// maps of the table entry translate in both directions.

// storeSchema renders the entry's schema in storage form.
func (e *tableEntry) storeSchema() store.Schema {
	sch := store.Schema{TOColumns: append([]string(nil), e.schema.toCols...)}
	for d, spec := range e.schema.orderSpecs {
		o := store.OrderSchema{Name: spec.Name, Values: append([]string(nil), spec.Values...)}
		for _, edge := range spec.Edges {
			o.Edges = append(o.Edges, [2]int32{
				int32(e.schema.poIndex[d][edge[0]]),
				int32(e.schema.poIndex[d][edge[1]]),
			})
		}
		sch.Orders = append(sch.Orders, o)
	}
	return sch
}

// storeRows converts row specs to columnar storage form, resolving PO
// labels to value ids. Row shape must already be validated (the table
// accepted these rows).
func (e *tableEntry) storeRows(rows []RowSpec) (store.Rows, error) {
	out := store.Rows{
		TO: make([][]int64, len(e.schema.toCols)),
		PO: make([][]int32, len(e.schema.orderSpecs)),
	}
	for c := range out.TO {
		out.TO[c] = make([]int64, 0, len(rows))
	}
	for c := range out.PO {
		out.PO[c] = make([]int32, 0, len(rows))
	}
	for i, r := range rows {
		if len(r.TO) != len(e.schema.toCols) || len(r.PO) != len(e.schema.orderSpecs) {
			return store.Rows{}, fmt.Errorf("row %d: %d TO / %d PO values, schema has %d / %d",
				i, len(r.TO), len(r.PO), len(e.schema.toCols), len(e.schema.orderSpecs))
		}
		for c, v := range r.TO {
			out.TO[c] = append(out.TO[c], v)
		}
		for c, label := range r.PO {
			id, ok := e.schema.poIndex[c][label]
			if !ok {
				return store.Rows{}, fmt.Errorf("row %d: unknown PO value %q", i, label)
			}
			out.PO[c] = append(out.PO[c], int32(id))
		}
	}
	return out, nil
}

// storeSnapshot captures one published snapshot in storage form.
func (e *tableEntry) storeSnapshot(snap *snapshot) (*store.Snapshot, error) {
	rows := make([]RowSpec, snap.table.Len())
	for i := range rows {
		to, po := snap.table.RowValues(i)
		rows[i] = RowSpec{TO: to, PO: po}
	}
	cols, err := e.storeRows(rows)
	if err != nil {
		return nil, err
	}
	return &store.Snapshot{
		Version:       snap.version,
		Schema:        e.storeSchema(),
		Rows:          cols,
		CacheCapacity: e.specCacheCap,
	}, nil
}

// mutationRecord renders a validated batch request as a WAL record
// producing the given version.
func (e *tableEntry) mutationRecord(version int64, req BatchRequest) (*store.Mutation, error) {
	add, err := e.storeRows(req.Add)
	if err != nil {
		return nil, err
	}
	m := &store.Mutation{Version: version, Add: add}
	for _, r := range req.Remove {
		m.Remove = append(m.Remove, int32(r))
	}
	return m, nil
}

// specFromStore reconstructs the wire-form table spec from a recovered
// storage snapshot; the entry built from it is then published at the
// snapshot's version.
func specFromStore(name string, s *store.Snapshot) (TableSpec, error) {
	spec := TableSpec{
		Name:          name,
		TOColumns:     append([]string(nil), s.Schema.TOColumns...),
		CacheCapacity: s.CacheCapacity,
	}
	for _, o := range s.Schema.Orders {
		os := OrderSpec{Name: o.Name, Values: append([]string(nil), o.Values...)}
		for _, e := range o.Edges {
			if int(e[0]) >= len(o.Values) || int(e[1]) >= len(o.Values) {
				return TableSpec{}, fmt.Errorf("edge (%d,%d) outside %d values", e[0], e[1], len(o.Values))
			}
			os.Edges = append(os.Edges, [2]string{o.Values[e[0]], o.Values[e[1]]})
		}
		spec.Orders = append(spec.Orders, os)
	}
	n := s.Rows.N()
	for i := 0; i < n; i++ {
		r := RowSpec{TO: make([]int64, len(s.Rows.TO))}
		for c := range s.Rows.TO {
			r.TO[c] = s.Rows.TO[c][i]
		}
		for c := range s.Rows.PO {
			r.PO = append(r.PO, s.Schema.Orders[c].Values[s.Rows.PO[c][i]])
		}
		spec.Rows = append(spec.Rows, r)
	}
	return spec, nil
}
