// Command tssquery computes the skyline of a CSV workload (as produced
// by tssgen, or hand-written in the same format) with a selectable
// algorithm, reporting the simulated cost model's counters.
//
//	tssquery -data work/data.csv -dags work/dag_0.txt,work/dag_1.txt -method stss
//	tssquery -data work/data.csv -dags work/dag_0.txt -method sdc+ -limit 20
//	tssquery -data work/data.csv -dags work/dag_0.txt -method stss -parallel 4
//
// The -method flag accepts any algorithm in the registry (see -help for
// the current list); -parallel N runs it behind the partition-and-merge
// executor with N shards (-1 = one per CPU).
//
// Planner mode (-subspace / -where / -topk / -rank / -fweights /
// -explain) answers subspace, constrained, top-k and weight-restricted
// skyline variants through the cost-based optimizer, which picks the
// algorithm (unless -method is explicitly set), parallelism and
// predicate placement from workload statistics; -explain prints the
// chosen plan as JSON:
//
//	tssquery -data work/data.csv -dags work/dag_0.txt -where "to_0<=500,po_0 in 1|3" -explain
//	tssquery -data work/data.csv -dags work/dag_0.txt -subspace to_0,po_0
//	tssquery -data work/data.csv -dags work/dag_0.txt -topk 10 -rank dpidp
//	tssquery -data work/data.csv -dags work/dag_0.txt -fweights 0.5,0.2
//
// The same flags work against a server (-serve URL), with column names
// and PO value labels resolved by the table's schema.
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
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/plan"
	"repro/internal/poset"
	"repro/internal/store"
)

func main() {
	dataPath := flag.String("data", "", "CSV data file")
	dagList := flag.String("dags", "", "comma-separated DAG files, one per PO column")
	method := flag.String("method", "stss",
		"skyline algorithm: "+strings.Join(core.AlgorithmNames(), ", "))
	parallel := flag.Int("parallel", 0,
		"run the partition-and-merge executor with N shards (0 = sequential, -1 = one per CPU)")
	queryDAGs := flag.String("querydags", "", "dynamic query: comma-separated DAG files replacing the data's partial orders (dTSS)")
	ideal := flag.String("ideal", "", "fully dynamic query: comma-separated ideal TO values (requires -querydags)")
	limit := flag.Int("limit", 10, "skyline rows to print (0 = all)")
	serveURL := flag.String("serve", "", "tssserve base URL: act as a thin client against a running server instead of computing locally")
	tableName := flag.String("table", "", "server or store table name (defaults to \"default\")")
	storeDir := flag.String("store", "", "durable store directory: with -save persist the -data workload there, without -data load the table from it")
	save := flag.Bool("save", false, "tables:save — persist the -data workload into -store and exit")
	stream := flag.Bool("stream", false, "progressive delivery: print each row the moment it is certified (server mode: NDJSON over ?stream=1)")
	first := flag.Int("first", 0, "stop after the first K streamed rows (implies -stream; unranked queries terminate server-side)")
	var pf planFlags
	flag.StringVar(&pf.subspace, "subspace", "", "planned query: comma-separated kept columns (to_<i>/po_<i> locally, schema names against a server)")
	flag.StringVar(&pf.where, "where", "", "planned query: comma-separated predicates, e.g. \"to_0<=500,po_0 in 1|3\"")
	flag.IntVar(&pf.topk, "topk", 0, "planned query: keep only the best K skyline rows")
	flag.StringVar(&pf.rank, "rank", "",
		"top-k ranking: "+strings.Join(plan.RankerNames(), ", ")+" (default: first K in emission order)")
	flag.StringVar(&pf.fweights, "fweights", "",
		"restricted skyline: comma-separated per-TO-column weight lower bounds (F-dominance; sum over kept columns <= 1)")
	flag.BoolVar(&pf.explain, "explain", false, "print the optimizer's plan (algorithm, route, estimates) before the results")
	flag.Parse()
	methodSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "method" {
			methodSet = true
		}
	})
	if pf.active() && *queryDAGs != "" {
		fatalf("-subspace/-where/-topk/-rank/-fweights/-explain plan over the workload's own orders; they cannot combine with -querydags")
	}
	if *first > 0 {
		*stream = true
	}
	if *stream && *queryDAGs != "" && *serveURL == "" {
		fatalf("-stream with -querydags needs -serve (dTSS answers group-at-a-time; the server replays its rows as a stream)")
	}

	if *serveURL != "" {
		if err := runClient(clientConfig{
			baseURL: *serveURL, table: *tableName,
			dataPath: *dataPath, dagList: *dagList,
			method: *method, methodSet: methodSet, parallel: *parallel,
			queryDAGs: *queryDAGs, ideal: *ideal, limit: *limit,
			stream: *stream, first: *first,
			plan: pf,
		}); err != nil {
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

	if *stream {
		forced := ""
		if methodSet {
			forced = *method
		}
		if err := runLocalStream(ds, pf, forced, *parallel, *ideal, *first, *limit); err != nil {
			fatalf("%v", err)
		}
		return
	}

	var res *core.Result
	var err error
	switch {
	case *queryDAGs != "":
		if *parallel != 0 {
			fatalf("-parallel applies to static queries only (dTSS runs sequentially)")
		}
		res, err = runDynamic(ds, *queryDAGs, *ideal)
		if err != nil {
			fatalf("%v", err)
		}
	case pf.active():
		forced := ""
		if methodSet {
			forced = *method
		}
		res, err = runPlanned(ds, pf, forced, *parallel, *ideal)
		if err != nil {
			fatalf("%v", err)
		}
	default:
		res, err = runStatic(ds, *method, *parallel)
		if err != nil {
			fatalf("%v", err)
		}
	}

	m := &res.Metrics
	fmt.Printf("rows=%d skyline=%d\n", len(ds.Pts), len(res.SkylineIDs))
	fmt.Printf("reads=%d writes=%d checks=%d cpu=%v total=%v (5ms/IO)\n",
		m.ReadIOs, m.WriteIOs, m.DomChecks, m.CPU.Round(1000),
		m.TotalTime(core.DefaultIOCost).Round(1000))
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

// loadDomains reads and preprocesses one DAG file per PO column.
func loadDomains(dagList string) ([]*poset.Domain, error) {
	if dagList == "" {
		return nil, nil
	}
	return data.ReadDomains(strings.Split(dagList, ","))
}

// runStatic answers a static skyline query with the chosen registered
// algorithm, optionally behind the partition-and-merge executor.
func runStatic(ds *core.Dataset, method string, parallel int) (*core.Result, error) {
	algo, ok := core.Lookup(method)
	if !ok {
		return nil, fmt.Errorf("unknown method %q (have: %s)",
			method, strings.Join(core.AlgorithmNames(), ", "))
	}
	var opt core.Options
	if parallel != 0 {
		if parallel > 0 {
			opt.Parallelism = parallel
		}
		algo = core.Parallel(algo)
	}
	return algo.Run(ds, opt)
}

// runPlanned answers a subspace / constrained / top-k query through the
// cost-based planner. With -method explicitly set the algorithm is
// forced; otherwise the optimizer chooses from the workload's
// statistics. -parallel maps to a shard-count hint (-1 = one per CPU,
// 0 = planner decides in this mode).
func runPlanned(ds *core.Dataset, pf planFlags, forcedMethod string, parallel int, idealCSV string) (*core.Result, error) {
	hint := 0
	switch {
	case parallel > 0:
		hint = parallel
	case parallel < 0:
		hint = runtime.GOMAXPROCS(0)
	}
	var ideal []int64
	if idealCSV != "" {
		if pf.rank != string(plan.RankIdeal) {
			return nil, errIdealNeedsRank
		}
		var err error
		if ideal, err = parseIdealCSV(idealCSV); err != nil {
			return nil, err
		}
	}
	q, err := pf.localQuery(ds.NumTO(), ds.NumPO(), forcedMethod, hint, ideal)
	if err != nil {
		return nil, err
	}
	env := plan.Env{Learned: plan.NewLearned()}
	p, err := plan.New(ds, q, env)
	if err != nil {
		return nil, err
	}
	res, err := p.Run(context.Background(), ds, env)
	if err != nil {
		return nil, err
	}
	if pf.explain {
		buf, err := json.MarshalIndent(&p.Explain, "", "  ")
		if err != nil {
			return nil, err
		}
		fmt.Printf("plan: %s\n", buf)
	}
	return res, nil
}

// runLocalStream answers a static or planned query through the
// streaming executor, printing each row the moment it is certified
// (with its elapsed-to-certify). -first K becomes an unranked top-k —
// the traversal stops after K certified rows — unless -topk is already
// set, and -limit only truncates what is printed.
func runLocalStream(ds *core.Dataset, pf planFlags, forcedMethod string, parallel int, idealCSV string, first, limit int) error {
	hint := 0
	switch {
	case parallel > 0:
		hint = parallel
	case parallel < 0:
		hint = runtime.GOMAXPROCS(0)
	}
	var q plan.Query
	if pf.active() {
		var ideal []int64
		if idealCSV != "" {
			if pf.rank != string(plan.RankIdeal) {
				return errIdealNeedsRank
			}
			var err error
			if ideal, err = parseIdealCSV(idealCSV); err != nil {
				return err
			}
		}
		var err error
		if q, err = pf.localQuery(ds.NumTO(), ds.NumPO(), forcedMethod, hint, ideal); err != nil {
			return err
		}
	} else {
		q = plan.Query{Hints: plan.Hints{Algorithm: forcedMethod, Parallelism: hint, NoCache: true}}
	}
	if first > 0 && q.TopK == 0 {
		q.TopK = first
	}
	env := plan.Env{Learned: plan.NewLearned()}
	p, err := plan.New(ds, q, env)
	if err != nil {
		return err
	}
	res, err := p.RunStream(context.Background(), ds, env, func(row plan.StreamRow) error {
		if limit > 0 && row.Index >= limit {
			return nil
		}
		pt := &ds.Pts[row.ID]
		fmt.Printf("  [%d] +%v row %d: TO=%v PO=%v\n",
			row.Index, row.Elapsed.Round(time.Microsecond), row.ID, pt.TO, pt.PO)
		return nil
	})
	if err != nil {
		return err
	}
	m := &res.Metrics
	fmt.Printf("rows=%d skyline=%d\n", len(ds.Pts), len(res.SkylineIDs))
	fmt.Printf("reads=%d writes=%d checks=%d cpu=%v total=%v (5ms/IO)\n",
		m.ReadIOs, m.WriteIOs, m.DomChecks, m.CPU.Round(1000),
		m.TotalTime(core.DefaultIOCost).Round(1000))
	if pf.explain {
		buf, err := json.MarshalIndent(&p.Explain, "", "  ")
		if err != nil {
			return err
		}
		fmt.Printf("plan: %s\n", buf)
	}
	return nil
}

// runDynamic answers a dynamic (or fully dynamic, when idealCSV is set)
// skyline query with dTSS over freshly built group structures.
func runDynamic(ds *core.Dataset, queryDAGs, idealCSV string) (*core.Result, error) {
	qDomains, err := loadDomains(queryDAGs)
	if err != nil {
		return nil, err
	}
	db := core.NewDynamicDB(ds, core.Options{})
	if idealCSV == "" {
		return db.QueryTSS(qDomains, core.Options{})
	}
	var q []int32
	for _, part := range strings.Split(idealCSV, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad -ideal value %q: %w", part, err)
		}
		q = append(q, int32(v))
	}
	return db.QueryTSSFull(q, qDomains, core.Options{})
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
