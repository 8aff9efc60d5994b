package main

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/plan"
	"repro/internal/serve"
)

// Query-shaping flag parsing, shared by the local and thin-client paths.
//
// Grammar (comma-separated clauses in -where, comma-separated column
// names in -subspace):
//
//	-subspace to_0,po_0
//	-where "to_0<=500,to_1>=2,po_0 in 1|3"
//	-topk 10 -rank domcount|ideal|dpidp|layer -explain
//	-fweights 0.5,0.2
//
// Locally the columns of a CSV workload are positional: to_<i> /
// po_<i> (the header's own to_*/po_* names in column order), and PO
// values are the integer ids the CSV stores. Against a server, column
// names and PO value labels are passed through verbatim and resolved by
// the table's schema.

type planFlags struct {
	subspace string
	where    string
	topk     int
	rank     string
	fweights string
	explain  bool
}

// active reports whether any planner-mode flag was used.
func (pf *planFlags) active() bool {
	return pf.subspace != "" || pf.where != "" || pf.topk > 0 || pf.rank != "" ||
		pf.fweights != "" || pf.explain
}

// checkCombos rejects flag combinations the planner would refuse
// anyway, naming the flags instead of wire fields.
func (pf *planFlags) checkCombos() error {
	if pf.fweights != "" && pf.rank != "" {
		return fmt.Errorf("-fweights cannot combine with -rank %s (the restricted skyline is unranked; unranked -topk keeps a prefix)", pf.rank)
	}
	return nil
}

// parseFWeightsCSV parses the -fweights flag's comma-separated
// per-TO-column weight lower bounds.
func parseFWeightsCSV(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad -fweights value %q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseIdealCSV parses the -ideal flag's comma-separated values.
func parseIdealCSV(s string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -ideal value %q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// whereClause is one parsed -where clause, still in string form.
type whereClause struct {
	col string
	op  string // "<=", ">=", "in"
	val string // number for <=/>=; |-separated list for in
}

func parseWhere(s string) ([]whereClause, error) {
	var out []whereClause
	for _, raw := range strings.Split(s, ",") {
		clause := strings.TrimSpace(raw)
		if clause == "" {
			continue
		}
		if i := strings.Index(clause, "<="); i >= 0 {
			out = append(out, whereClause{col: strings.TrimSpace(clause[:i]), op: "<=", val: strings.TrimSpace(clause[i+2:])})
			continue
		}
		if i := strings.Index(clause, ">="); i >= 0 {
			out = append(out, whereClause{col: strings.TrimSpace(clause[:i]), op: ">=", val: strings.TrimSpace(clause[i+2:])})
			continue
		}
		if col, rest, ok := strings.Cut(clause, " in "); ok {
			out = append(out, whereClause{col: strings.TrimSpace(col), op: "in", val: strings.TrimSpace(rest)})
			continue
		}
		return nil, fmt.Errorf("bad -where clause %q (want col<=N, col>=N or col in v|w)", clause)
	}
	return out, nil
}

// parseCol resolves a positional column token: to_<i>/to<i> or
// po_<i>/po<i>.
func parseCol(tok string, nTO, nPO int) (dim int, isTO bool, err error) {
	var idx string
	switch {
	case strings.HasPrefix(tok, "to_"):
		idx, isTO = tok[3:], true
	case strings.HasPrefix(tok, "to"):
		idx, isTO = tok[2:], true
	case strings.HasPrefix(tok, "po_"):
		idx = tok[3:]
	case strings.HasPrefix(tok, "po"):
		idx = tok[2:]
	default:
		return 0, false, fmt.Errorf("bad column %q (want to_<i> or po_<i>)", tok)
	}
	dim, err = strconv.Atoi(idx)
	if err != nil {
		return 0, false, fmt.Errorf("bad column %q: %v", tok, err)
	}
	limit := nPO
	if isTO {
		limit = nTO
	}
	if dim < 0 || dim >= limit {
		return 0, false, fmt.Errorf("column %q out of range (workload has %d TO / %d PO columns)", tok, nTO, nPO)
	}
	return dim, isTO, nil
}

// localQuery builds the plan.Query of the local path against a
// workload's shape.
func (pf *planFlags) localQuery(nTO, nPO int, method string, parallel int, ideal []int64) (plan.Query, error) {
	if err := pf.checkCombos(); err != nil {
		return plan.Query{}, err
	}
	q := plan.Query{
		TopK:  pf.topk,
		Rank:  plan.Rank(pf.rank),
		Ideal: ideal,
		Hints: plan.Hints{Algorithm: method, Parallelism: parallel},
	}
	if pf.fweights != "" {
		fw, err := parseFWeightsCSV(pf.fweights)
		if err != nil {
			return plan.Query{}, err
		}
		q.FWeights = fw
	}
	if pf.subspace != "" {
		s := &plan.Subspace{}
		for _, tok := range strings.Split(pf.subspace, ",") {
			dim, isTO, err := parseCol(strings.TrimSpace(tok), nTO, nPO)
			if err != nil {
				return plan.Query{}, fmt.Errorf("-subspace: %w", err)
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
	clauses, err := parseWhere(pf.where)
	if err != nil {
		return plan.Query{}, err
	}
	for _, c := range clauses {
		dim, isTO, err := parseCol(c.col, nTO, nPO)
		if err != nil {
			return plan.Query{}, fmt.Errorf("-where: %w", err)
		}
		if c.op == "in" {
			if isTO {
				return plan.Query{}, fmt.Errorf("-where: `in` needs a po_* column, got %q", c.col)
			}
			pr := plan.Predicate{Kind: plan.POIn, Dim: dim}
			for _, v := range strings.Split(c.val, "|") {
				id, err := strconv.Atoi(strings.TrimSpace(v))
				if err != nil {
					return plan.Query{}, fmt.Errorf("-where: bad PO value id %q: %v", v, err)
				}
				pr.In = append(pr.In, int32(id))
			}
			q.Where = append(q.Where, pr)
			continue
		}
		if !isTO {
			return plan.Query{}, fmt.Errorf("-where: %s needs a to_* column, got %q", c.op, c.col)
		}
		n, err := strconv.ParseInt(c.val, 10, 64)
		if err != nil {
			return plan.Query{}, fmt.Errorf("-where: bad bound %q: %v", c.val, err)
		}
		pr := plan.Predicate{Kind: plan.TORange, Dim: dim}
		if c.op == "<=" {
			pr.HasHi, pr.Hi = true, n
		} else {
			pr.HasLo, pr.Lo = true, n
		}
		q.Where = append(q.Where, pr)
	}
	return q, nil
}

// wireFields renders the flags as QueryRequest fields for the thin
// client: names and labels pass through verbatim.
func (pf *planFlags) wireFields(req *serve.QueryRequest) error {
	if err := pf.checkCombos(); err != nil {
		return err
	}
	if pf.fweights != "" {
		fw, err := parseFWeightsCSV(pf.fweights)
		if err != nil {
			return err
		}
		req.FWeights = fw
	}
	if pf.subspace != "" {
		for _, tok := range strings.Split(pf.subspace, ",") {
			req.Subspace = append(req.Subspace, strings.TrimSpace(tok))
		}
	}
	clauses, err := parseWhere(pf.where)
	if err != nil {
		return err
	}
	for _, c := range clauses {
		w := serve.WhereSpec{Col: c.col}
		switch c.op {
		case "in":
			for _, v := range strings.Split(c.val, "|") {
				w.In = append(w.In, strings.TrimSpace(v))
			}
		default:
			n, err := strconv.ParseInt(c.val, 10, 64)
			if err != nil {
				return fmt.Errorf("-where: bad bound %q: %v", c.val, err)
			}
			if c.op == "<=" {
				w.Le = &n
			} else {
				w.Ge = &n
			}
		}
		req.Where = append(req.Where, w)
	}
	req.TopK = pf.topk
	req.Rank = pf.rank
	req.Explain = pf.explain
	return nil
}
