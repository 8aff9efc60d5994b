package main

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/serve"
)

// Query-shaping flag parsing into the one QueryRequest both modes run.
//
// Grammar (comma-separated clauses in -where, comma-separated column
// names in -subspace):
//
//	-subspace to_0,po_0
//	-where "to_0<=500,to_1>=2,po_0 in 1|3"
//	-topk 10 -rank domcount|ideal|dpidp|layer -explain
//	-fweights 0.5,0.2
//
// Column names and PO value labels pass through verbatim and resolve
// against the table's schema — a server's, or for a local run the one a
// CSV workload uploads as: to_<i> / po_<i> (po<i> also works) in column
// order, PO values labelled by the integer ids the CSV stores.

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

// wireFields renders the flags as QueryRequest fields: names and labels
// pass through verbatim.
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
