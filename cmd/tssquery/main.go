// Command tssquery computes the skyline of a CSV workload (as produced
// by tssgen, or hand-written in the same format) with a selectable
// algorithm, reporting the simulated cost model's counters.
//
//	tssquery -data work/data.csv -dags work/dag_0.txt,work/dag_1.txt -method stss
//	tssquery -data work/data.csv -dags work/dag_0.txt -method sfs -limit 20
//	tssquery -data work/data.csv -dags work/dag_0.txt -method stss -parallel 4
//
// The -method flag accepts a serving algorithm, sfs or stss (the
// BNL, BBS+, SDC and SDC+ baselines run only in tssbench);
// -parallel N runs it behind the partition-and-merge executor with N
// shards (-1 = one per CPU, 0 = the planner decides).
//
// Every run is one planned query: the flags build one serve.QueryRequest,
// which -serve POSTs to /tables/{t}/query and a local run translates
// with the workload's schema, so a flag means the same thing in both
// modes. -subspace / -where / -topk / -rank / -fweights / -querydags /
// -ideal shape it — subspace, constrained, top-k, weight-restricted and
// dynamic (the query's own preference DAGs, and with -ideal but no -rank
// ideal the fully dynamic |v−ideal| skyline), in any combination — and
// the planner runs SFS's scan (unless -method is explicitly set), places
// predicates, and partitions the scan when the rows it gets are many;
// -explain prints what the plan ran as JSON. Without a shaping
// flag the run forces -method's algorithm and bypasses the skyline memo.
//
//	tssquery -data work/data.csv -dags work/dag_0.txt -where "to_0<=500,po_0 in 1|3" -explain
//	tssquery -data work/data.csv -dags work/dag_0.txt -subspace to_0,po_0
//	tssquery -data work/data.csv -dags work/dag_0.txt -topk 10 -rank dpidp
//	tssquery -data work/data.csv -dags work/dag_0.txt -fweights 0.5,0.2
//	tssquery -data work/data.csv -dags work/dag_0.txt -querydags q_0.txt -where "to_0<=500" -topk 5
//
// Columns are named as on a server: a CSV workload's to_<i> and po_<i>
// (po<i> also works), and PO values are the integer ids the CSV stores.
// A -querydags run reports the counters of the algorithm the plan chose,
// locally as against a server; dTSS — the paper's prepared structure for
// dynamic queries — and its simulated page I/O live where the paper's
// dynamic figures are produced (tssbench -fig 12..14,
// internal/exp/figures.go) and in examples/preferences.
//
// Workloads round-trip through the durable storage engine (the same
// format tssserve's -data-dir uses):
//
//	tssquery -data work/data.csv -dags work/dag_0.txt -store ./tss-data -table w -save
//	tssquery -store ./tss-data -table w -method stss
//
// tables:save persists the CSV workload as a columnar snapshot;
// loading queries the stored table (snapshot + WAL replay) without the
// original CSV.
//
// The CSV header names the columns: to_* columns are totally ordered
// (smaller is better), po_* columns hold integer value ids into the
// corresponding DAG file (first line N, then "better worse" edges).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/plan"
	"repro/internal/poset"
	"repro/internal/serve"
	"repro/internal/store"
)

func main() {
	dataPath := flag.String("data", "", "CSV data file")
	dagList := flag.String("dags", "", "comma-separated DAG files, one per PO column")
	method := flag.String("method", "stss",
		"skyline algorithm: "+strings.Join(core.AlgorithmNames(), ", "))
	parallel := flag.Int("parallel", 0,
		"run the partition-and-merge executor with N shards (0 = planner decides, -1 = one per CPU)")
	queryDAGs := flag.String("querydags", "", "dynamic query: comma-separated DAG files replacing the data's partial orders for this query")
	ideal := flag.String("ideal", "", "comma-separated ideal TO values: the reference point of -rank ideal, else the fully dynamic |v-ideal| skyline")
	limit := flag.Int("limit", 10, "skyline rows to print (0 = all)")
	serveURL := flag.String("serve", "", "tssserve base URL: act as a thin client against a running server instead of computing locally")
	tableName := flag.String("table", "", "server or store table name (defaults to \"default\")")
	storeDir := flag.String("store", "", "durable store directory: with -save persist the -data workload there, without -data load the table from it")
	save := flag.Bool("save", false, "tables:save — persist the -data workload into -store and exit")
	stream := flag.Bool("stream", false, "progressive delivery: print each row the moment it is certified (server mode: NDJSON over ?stream=1)")
	first := flag.Int("first", 0, "stop after the first K streamed rows (implies -stream; unranked queries terminate server-side)")
	var pf planFlags
	flag.StringVar(&pf.subspace, "subspace", "", "planned query: comma-separated kept column names (to_<i>/po_<i> for a CSV workload)")
	flag.StringVar(&pf.where, "where", "", "planned query: comma-separated predicates, e.g. \"to_0<=500,po_0 in 1|3\"")
	flag.IntVar(&pf.topk, "topk", 0, "planned query: keep only the best K skyline rows")
	flag.StringVar(&pf.rank, "rank", "",
		"top-k ranking: "+strings.Join(plan.RankerNames(), ", ")+" (default: first K in emission order)")
	flag.StringVar(&pf.fweights, "fweights", "",
		"restricted skyline: comma-separated per-TO-column weight lower bounds (F-dominance; sum over kept columns <= 1)")
	flag.BoolVar(&pf.explain, "explain", false, "print what the plan ran (algorithm, route, parallelism, observed rows and time) before the results")
	flag.Parse()
	methodSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "method" {
			methodSet = true
		}
	})
	if *first > 0 {
		*stream = true
	}

	cfg := clientConfig{
		baseURL: *serveURL, table: *tableName,
		dataPath: *dataPath, dagList: *dagList,
		method: *method, methodSet: methodSet, parallel: *parallel,
		queryDAGs: *queryDAGs, ideal: *ideal, limit: *limit,
		stream: *stream, first: *first,
		plan: pf,
	}
	if *serveURL != "" {
		if err := runClient(cfg); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if *dataPath == "" && *storeDir == "" {
		fatalf("missing -data (or -store to load a persisted table)")
	}

	var ds *core.Dataset
	if *dataPath != "" {
		domains, err := loadDomains(*dagList)
		if err != nil {
			fatalf("%v", err)
		}
		ds, err = data.ReadCSVDataset(*dataPath, domains)
		if err != nil {
			fatalf("read %s: %v", *dataPath, err)
		}
		if err := ds.Validate(); err != nil {
			fatalf("validate: %v", err)
		}
	}

	if *storeDir != "" {
		table := *tableName
		if table == "" {
			table = "default"
		}
		st, err := store.OpenDisk(*storeDir, store.DiskOptions{})
		if err != nil {
			fatalf("open store %q: %v", *storeDir, err)
		}
		defer st.Close()
		if *save {
			if ds == nil {
				fatalf("-save needs -data")
			}
			snap, err := data.DatasetSnapshot(ds, 0)
			if err != nil {
				fatalf("%v", err)
			}
			if err := st.SaveSnapshot(table, snap); err != nil {
				fatalf("save table %q: %v", table, err)
			}
			fmt.Printf("saved table %q: %d rows, %d TO / %d PO columns\n",
				table, snap.Rows.N(), len(snap.Schema.TOColumns), len(snap.Schema.Orders))
			return
		}
		if ds == nil {
			snap, err := st.Load(table)
			if err != nil {
				fatalf("load table %q: %v", table, err)
			}
			ds, err = data.DatasetFromSnapshot(snap)
			if err != nil {
				fatalf("table %q: %v", table, err)
			}
			fmt.Printf("loaded table %q: version %d, %d rows\n", table, snap.Version, len(ds.Pts))
		}
	}

	req, err := cfg.request()
	if err != nil {
		fatalf("%v", err)
	}
	var emit func(plan.StreamRow) error
	if *stream {
		emit = func(row plan.StreamRow) error {
			if *limit > 0 && row.Index >= *limit {
				return nil
			}
			pt := &ds.Pts[row.ID]
			fmt.Printf("  [%d] +%v row %d: TO=%v PO=%v\n",
				row.Index, row.Elapsed.Round(time.Microsecond), row.ID, pt.TO, pt.PO)
			return nil
		}
	}
	res, explain, err := runLocal(ds, req, emit)
	if err != nil {
		fatalf("%v", err)
	}
	if pf.explain && !*stream {
		printExplain(explain)
	}
	m := &res.Metrics
	fmt.Printf("rows=%d skyline=%d\n", len(ds.Pts), len(res.SkylineIDs))
	fmt.Printf("reads=%d writes=%d checks=%d cpu=%v total=%v (5ms/IO)\n",
		m.ReadIOs, m.WriteIOs, m.DomChecks, m.CPU.Round(1000),
		m.TotalTime(core.DefaultIOCost).Round(1000))
	if *stream {
		// The rows went out as they certified; the plan follows the summary.
		if pf.explain {
			printExplain(explain)
		}
		return
	}
	n := *limit
	if n == 0 || n > len(res.SkylineIDs) {
		n = len(res.SkylineIDs)
	}
	for _, id := range res.SkylineIDs[:n] {
		p := &ds.Pts[id]
		fmt.Printf("  row %d: TO=%v PO=%v\n", id, p.TO, p.PO)
	}
	if n < len(res.SkylineIDs) {
		fmt.Printf("  ... %d more\n", len(res.SkylineIDs)-n)
	}
}

func printExplain(ex *plan.Explain) {
	buf, err := json.MarshalIndent(ex, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("plan: %s\n", buf)
}

// loadDomains reads and preprocesses one DAG file per PO column.
func loadDomains(dagList string) ([]*poset.Domain, error) {
	if dagList == "" {
		return nil, nil
	}
	return data.ReadDomains(strings.Split(dagList, ","))
}

// localSchema is the schema of the table serve.SpecFromDataset makes of
// the workload — the one naming rule -serve -data uploads with. One row
// is enough for it to size the columns, so the rest are not converted.
func localSchema(ds *core.Dataset) (*serve.Schema, error) {
	spec := serve.SpecFromDataset("", &core.Dataset{Pts: ds.Pts[:min(len(ds.Pts), 1)], Domains: ds.Domains})
	return serve.NewSchema(spec.TOColumns, spec.Orders)
}

// runLocal translates req with the workload's schema — exactly as a
// server translates it — then plans and runs the query: buffered, or
// with emit set through the streaming executor, which hands over each
// row the moment it is certified.
func runLocal(ds *core.Dataset, req serve.QueryRequest, emit func(plan.StreamRow) error) (*core.Result, *plan.Explain, error) {
	schema, err := localSchema(ds)
	if err != nil {
		return nil, nil, err
	}
	q, err := schema.PlanQuery(req)
	if err != nil {
		return nil, nil, err
	}
	var env plan.Env
	p, err := plan.New(ds, q, env)
	if err != nil {
		return nil, nil, err
	}
	var res *core.Result
	if emit == nil {
		res, err = p.Run(context.Background(), ds, env)
	} else {
		res, err = p.RunStream(context.Background(), ds, env, emit)
	}
	return res, &p.Explain, err
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
