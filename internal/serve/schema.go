package serve

import (
	"fmt"
	"runtime"

	"repro/internal/plan"
	"repro/internal/poset"
)

// Schema is the wire-level shape of a table — TO column names plus the
// PO OrderSpecs — with the name-resolution and query-translation logic
// every server role needs: the single-node table entry resolves
// requests against it, and the cluster coordinator reuses
// the identical resolution (and compiled preference domains) so a
// query means the same thing at either layer.
type Schema struct {
	toCols     []string
	orderSpecs []OrderSpec
	poIndex    []map[string]int // per order: value label -> id (storage encoding)
	poSizes    []int            // per order: number of values (plan.Query.Validate's shape)
	quoted     [][][]byte       // per order: per value id, the label as a JSON string (AppendRow)
}

// NewSchema validates the column namespace (TO names, order names and
// "po<d>" fallbacks share one namespace; a collision would make a
// column silently unaddressable) and builds the label indexes.
func NewSchema(toColumns []string, orders []OrderSpec) (*Schema, error) {
	sc := &Schema{
		toCols:     append([]string(nil), toColumns...),
		orderSpecs: append([]OrderSpec(nil), orders...),
		quoted:     quoteLabels(orders),
	}
	for _, spec := range sc.orderSpecs {
		idx := make(map[string]int, len(spec.Values))
		for i, v := range spec.Values {
			idx[v] = i
		}
		sc.poIndex = append(sc.poIndex, idx)
		sc.poSizes = append(sc.poSizes, len(spec.Values))
	}
	seen := make(map[string]bool, len(sc.toCols)+len(sc.orderSpecs))
	for _, c := range sc.toCols {
		if seen[c] {
			return nil, fmt.Errorf("duplicate column name %q", c)
		}
		seen[c] = true
	}
	for d := range sc.orderSpecs {
		name := sc.POColName(d)
		if seen[name] {
			return nil, fmt.Errorf("column name %q is used by more than one column", name)
		}
		seen[name] = true
	}
	return sc, nil
}

// TOColumns returns the TO column names (a copy).
func (sc *Schema) TOColumns() []string { return append([]string(nil), sc.toCols...) }

// Orders returns the PO column OrderSpecs (a copy).
func (sc *Schema) Orders() []OrderSpec { return append([]OrderSpec(nil), sc.orderSpecs...) }

// NumTO returns the number of TO columns.
func (sc *Schema) NumTO() int { return len(sc.toCols) }

// NumPO returns the number of PO columns.
func (sc *Schema) NumPO() int { return len(sc.orderSpecs) }

// POColName returns the display/lookup name of PO column d: the
// OrderSpec's name, or the positional fallback "po<d>".
func (sc *Schema) POColName(d int) string {
	if n := sc.orderSpecs[d].Name; n != "" {
		return n
	}
	return fmt.Sprintf("po%d", d)
}

// POValueLabel renders a PO value id of column d back to its label.
func (sc *Schema) POValueLabel(d, id int) (string, bool) {
	if id < 0 || id >= len(sc.orderSpecs[d].Values) {
		return "", false
	}
	return sc.orderSpecs[d].Values[id], true
}

// LookupCol resolves a column name: TO columns by their declared name,
// PO columns by their OrderSpec name or "po<d>" fallback. The positional
// "po<d>" also addresses a named PO column, but a declared name comes
// first: if PO column 0 is named "po1", "po1" is column 0, and PO column
// 1 is reachable only by its own name.
func (sc *Schema) LookupCol(name string) (dim int, isTO bool, err error) {
	for d, c := range sc.toCols {
		if c == name {
			return d, true, nil
		}
	}
	for d := range sc.orderSpecs {
		if sc.POColName(d) == name {
			return d, false, nil
		}
	}
	for d := range sc.orderSpecs {
		if fmt.Sprintf("po%d", d) == name {
			return d, false, nil
		}
	}
	return 0, false, fmt.Errorf("unknown column %q", name)
}

// PlanQuery translates a request into the plan package's logical query,
// resolving column names and PO value labels and compiling per-request
// orders, and validates it against the table shape — so a malformed
// query is a client error before any work starts or any stream opens,
// with the same text on a node and on a coordinator. The wire
// parallelism contract matches the CLI flag: > 0 forces that many
// shards, at most one per *executing host* CPU, < 0 forces one per CPU,
// 0 lets the planner decide — so `tssquery -parallel -1` means the same
// thing locally and against a server.
func (sc *Schema) PlanQuery(req QueryRequest) (plan.Query, error) {
	if req.Limit < 0 {
		return plan.Query{}, fmt.Errorf("limit %d: must not be negative", req.Limit)
	}
	par := req.Parallel
	if par != 0 && (par < 0 || par > runtime.GOMAXPROCS(0)) {
		par = runtime.GOMAXPROCS(0)
	}
	q := plan.Query{
		TopK:     req.TopK,
		Rank:     plan.Rank(req.Rank),
		Ideal:    req.Ideal,
		FWeights: req.FWeights,
		Hints:    plan.Hints{Algorithm: req.Algo, Parallelism: par, NoCache: req.NoCache},
	}
	if len(req.Orders) > 0 {
		var err error
		if q.Orders, err = sc.QueryDomains(req.Orders); err != nil {
			return plan.Query{}, err
		}
	}
	if len(req.Subspace) > 0 {
		s := &plan.Subspace{}
		for _, name := range req.Subspace {
			dim, isTO, err := sc.LookupCol(name)
			if err != nil {
				return plan.Query{}, fmt.Errorf("subspace: %w", err)
			}
			if isTO {
				s.TO = append(s.TO, dim)
			} else {
				s.PO = append(s.PO, dim)
			}
		}
		s.TO = plan.NormalizeDims(s.TO)
		s.PO = plan.NormalizeDims(s.PO)
		q.Subspace = s
	}
	for i, w := range req.Where {
		dim, isTO, err := sc.LookupCol(w.Col)
		if err != nil {
			return plan.Query{}, fmt.Errorf("where[%d]: %w", i, err)
		}
		switch {
		case len(w.In) > 0:
			if isTO {
				return plan.Query{}, fmt.Errorf("where[%d]: `in` needs a PO column, %q is totally ordered", i, w.Col)
			}
			if w.Le != nil || w.Ge != nil {
				return plan.Query{}, fmt.Errorf("where[%d]: `in` cannot combine with le/ge", i)
			}
			pr := plan.Predicate{Kind: plan.POIn, Dim: dim}
			for _, label := range w.In {
				id, ok := sc.poIndex[dim][label]
				if !ok {
					return plan.Query{}, fmt.Errorf("where[%d]: unknown value %q for column %q", i, label, w.Col)
				}
				pr.In = append(pr.In, int32(id))
			}
			q.Where = append(q.Where, pr)
		case w.Le != nil || w.Ge != nil:
			if !isTO {
				return plan.Query{}, fmt.Errorf("where[%d]: le/ge need a TO column, %q is partially ordered", i, w.Col)
			}
			pr := plan.Predicate{Kind: plan.TORange, Dim: dim}
			if w.Ge != nil {
				pr.HasLo, pr.Lo = true, *w.Ge
			}
			if w.Le != nil {
				pr.HasHi, pr.Hi = true, *w.Le
			}
			q.Where = append(q.Where, pr)
		default:
			return plan.Query{}, fmt.Errorf("where[%d]: no le/ge/in on column %q", i, w.Col)
		}
	}
	return q, q.Validate(len(sc.toCols), len(sc.orderSpecs), sc.poSizes)
}

// compileDomains turns per-column edge lists (label pairs over the
// schema's value sets) into preference domains — the t-dominance oracle
// the cluster coordinator's merge pass uses.
func (sc *Schema) compileDomains(edges [][][2]string) ([]*poset.Domain, error) {
	if len(edges) != len(sc.orderSpecs) {
		return nil, fmt.Errorf("%d edge lists, schema has %d PO columns", len(edges), len(sc.orderSpecs))
	}
	domains := make([]*poset.Domain, len(sc.orderSpecs))
	for d, spec := range sc.orderSpecs {
		dag := poset.NewDAG(len(spec.Values))
		for i, v := range spec.Values {
			dag.SetLabel(i, v)
		}
		for _, e := range edges[d] {
			b, ok := sc.poIndex[d][e[0]]
			if !ok {
				return nil, fmt.Errorf("order %d: unknown value %q", d, e[0])
			}
			w, ok := sc.poIndex[d][e[1]]
			if !ok {
				return nil, fmt.Errorf("order %d: unknown value %q", d, e[1])
			}
			if err := dag.AddEdge(b, w); err != nil {
				return nil, fmt.Errorf("order %d: %w", d, err)
			}
		}
		dom, err := poset.NewDomain(dag)
		if err != nil {
			return nil, fmt.Errorf("order %d: %w", d, err)
		}
		domains[d] = dom
	}
	return domains, nil
}

// BaseDomains compiles the schema's own preference orders.
func (sc *Schema) BaseDomains() ([]*poset.Domain, error) {
	edges := make([][][2]string, len(sc.orderSpecs))
	for d, spec := range sc.orderSpecs {
		edges[d] = spec.Edges
	}
	return sc.compileDomains(edges)
}

// QueryDomains compiles per-request preference DAGs over the schema's
// value sets — the one place a request's `orders` are compiled, on
// either tier.
func (sc *Schema) QueryDomains(orders []QueryOrder) ([]*poset.Domain, error) {
	if len(orders) != len(sc.orderSpecs) {
		return nil, fmt.Errorf("query has %d orders, table has %d PO columns", len(orders), len(sc.orderSpecs))
	}
	edges := make([][][2]string, len(orders))
	for d, o := range orders {
		edges[d] = o.Edges
	}
	return sc.compileDomains(edges)
}
