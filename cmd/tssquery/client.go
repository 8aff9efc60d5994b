package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"repro/internal/data"
	"repro/internal/serve"
)

// Thin-client mode (-serve URL): instead of computing locally, talk to
// a running tssserve. With -data, the local workload is first uploaded
// as a table (replacing any table of the same name); then the query the
// flags describe is POSTed to /tables/{t}/query and the response printed
// in the local mode's format.

// clientConfig holds the flags a query is built from (see request).
type clientConfig struct {
	baseURL, table    string
	dataPath, dagList string
	method            string
	methodSet         bool
	parallel          int
	queryDAGs, ideal  string
	limit             int
	stream            bool // ?stream=1: print rows as the server certifies them
	first             int  // stop after K streamed rows (a server-side unranked top-k)
	plan              planFlags
}

func runClient(cfg clientConfig) error {
	if cfg.table == "" {
		cfg.table = "default"
	}
	base := strings.TrimRight(cfg.baseURL, "/")
	c := &client{base: base, http: http.DefaultClient}

	if cfg.dataPath != "" {
		if err := c.upload(cfg); err != nil {
			return err
		}
	}
	req, err := cfg.request()
	if err != nil {
		return err
	}
	path := "/tables/" + url.PathEscape(cfg.table) + "/query"
	if cfg.stream {
		return c.runStream(path+"?stream=1", req, cfg.first)
	}
	var out serve.QueryResponse
	if err := c.postJSON(path, req, &out); err != nil {
		return err
	}
	if out.Plan != nil {
		buf, err := json.MarshalIndent(out.Plan, "", "  ")
		if err != nil {
			return err
		}
		fmt.Printf("plan: %s\n", buf)
	}
	printResponse(&out, cfg.limit)
	return nil
}

// shaped reports whether any flag shapes the query beyond the bare
// "-method's skyline" invocation.
func (cfg *clientConfig) shaped() bool {
	return cfg.plan.active() || cfg.queryDAGs != "" || cfg.ideal != ""
}

// request builds the one QueryRequest both modes run: -serve POSTs it, a
// local run translates it with the workload's schema (runLocal). The
// shaping flags pass through verbatim — column names and PO value labels
// resolve against the schema — -querydags become the request's orders
// (edges over the DAG files' integer value ids), and -method (when
// explicitly set) and -parallel become optimizer hints. The bare
// invocation bypasses the memo and forces -method's algorithm (sTSS by
// default) — except on a stream, which only SFS's scan serves
// progressively, so an unset -method is left to the planner there. On
// a stream, -first K becomes an unranked top-k unless -topk is set, so
// the query itself stops (and a coordinator cancels its remaining shard
// legs) after K certified rows.
func (cfg *clientConfig) request() (serve.QueryRequest, error) {
	var req serve.QueryRequest
	if err := cfg.plan.wireFields(&req); err != nil {
		return req, err
	}
	if cfg.methodSet || !(cfg.shaped() || cfg.stream) {
		req.Algo = cfg.method
	}
	req.Parallel = cfg.parallel
	req.NoCache = !cfg.shaped()
	if cfg.queryDAGs != "" {
		for _, path := range strings.Split(cfg.queryDAGs, ",") {
			dag, err := data.ReadDAGFile(path)
			if err != nil {
				return req, fmt.Errorf("read %s: %w", path, err)
			}
			req.Orders = append(req.Orders, serve.QueryOrder{Edges: serve.OrderSpecFromDAG("", dag).Edges})
		}
	}
	if cfg.ideal != "" {
		ideal, err := parseIdealCSV(cfg.ideal)
		if err != nil {
			return req, err
		}
		req.Ideal = ideal
	}
	if cfg.limit > 0 {
		req.Limit = cfg.limit
	}
	if cfg.stream && cfg.first > 0 && req.TopK == 0 {
		req.TopK = cfg.first
	}
	return req, nil
}

type client struct {
	base string
	http *http.Client
}

// upload replaces the server table with the local CSV workload.
func (c *client) upload(cfg clientConfig) error {
	domains, err := loadDomains(cfg.dagList)
	if err != nil {
		return err
	}
	ds, err := data.ReadCSVDataset(cfg.dataPath, domains)
	if err != nil {
		return fmt.Errorf("read %s: %w", cfg.dataPath, err)
	}
	if err := ds.Validate(); err != nil {
		return err
	}
	spec := serve.SpecFromDataset(cfg.table, ds)

	// Replace: drop any previous table of this name, then create.
	req, err := http.NewRequest(http.MethodDelete, c.base+"/tables/"+url.PathEscape(cfg.table), nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("reach server: %w", err)
	}
	resp.Body.Close()
	// 404 just means no previous table; anything else non-2xx would
	// make the create below fail confusingly, so report it here.
	if resp.StatusCode/100 != 2 && resp.StatusCode != http.StatusNotFound {
		return fmt.Errorf("drop previous table: HTTP %d", resp.StatusCode)
	}
	var info serve.TableInfo
	if err := c.postJSON("/tables", spec, &info); err != nil {
		return fmt.Errorf("create table: %w", err)
	}
	fmt.Printf("uploaded table %q: %d rows\n", info.Name, info.Rows)
	return nil
}

// printResponse mirrors the local mode's report format. Coordinator
// responses additionally report the scatter fan-out and annotate each
// row with its shard — the (shard, row) pair is the handle a
// removeSharded batch needs.
func printResponse(out *serve.QueryResponse, limit int) {
	fmt.Printf("rows=%d skyline=%d version=%d", out.Rows, out.Count, out.Version)
	if out.CacheHit {
		fmt.Printf(" (cache hit)")
	}
	if c := out.Cluster; c != nil {
		fmt.Printf(" [cluster: %d shards, versions=%v", c.Shards, c.Versions)
		if len(c.Pruned) > 0 {
			fmt.Printf(", pruned=%v", c.Pruned)
		}
		fmt.Printf("]")
	}
	fmt.Println()
	m := &out.Metrics
	fmt.Printf("reads=%d writes=%d checks=%d cpu=%.6fs total=%.3fs (5ms/IO)\n",
		m.ReadIOs, m.WriteIOs, m.DomChecks, m.CPUSeconds, m.TotalSeconds)
	n := len(out.Skyline)
	if limit > 0 && limit < n {
		n = limit
	}
	for _, row := range out.Skyline[:n] {
		if row.Shard != nil {
			fmt.Printf("  shard %d row %d: TO=%v PO=%v\n", *row.Shard, row.Row, row.TO, row.PO)
			continue
		}
		fmt.Printf("  row %d: TO=%v PO=%v\n", row.Row, row.TO, row.PO)
	}
	if n < out.Count {
		fmt.Printf("  ... %d more\n", out.Count-n)
	}
}

// runStream POSTs a ?stream=1 query and prints each NDJSON record as it
// arrives: rows the moment the server certifies them, then the trailer
// summary. With first > 0 the client stops reading — and closes the
// connection, cancelling the server-side query — once K rows have been
// printed.
func (c *client) runStream(path string, body any, first int) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return fmt.Errorf("reach server: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeResponse(resp, nil)
	}
	dec := json.NewDecoder(resp.Body)
	printed := 0
	for {
		var rec serve.StreamRecord
		if err := dec.Decode(&rec); err != nil {
			return fmt.Errorf("stream: %w", err)
		}
		switch rec.Type {
		case "header":
			fmt.Printf("streaming %q", rec.Table)
			if rec.Rows > 0 || rec.Version > 0 {
				fmt.Printf(": rows=%d version=%d", rec.Rows, rec.Version)
			}
			fmt.Println()
		case "row":
			if rec.Row == nil {
				continue
			}
			if rec.Row.Shard != nil {
				fmt.Printf("  [%d] +%.1fms shard %d row %d: TO=%v PO=%v\n",
					rec.Emission, rec.Elapsed*1e3, *rec.Row.Shard, rec.Row.Row, rec.Row.TO, rec.Row.PO)
			} else {
				fmt.Printf("  [%d] +%.1fms row %d: TO=%v PO=%v\n",
					rec.Emission, rec.Elapsed*1e3, rec.Row.Row, rec.Row.TO, rec.Row.PO)
			}
			printed++
			if first > 0 && printed >= first {
				fmt.Printf("first %d rows received; closing stream\n", first)
				return nil
			}
		case "heartbeat":
			// idle keepalive — nothing to print
		case "error":
			return fmt.Errorf("server: %s", rec.Error)
		case "trailer":
			fmt.Printf("skyline=%d version=%d", rec.Count, rec.Version)
			if rec.CacheHit {
				fmt.Printf(" (cache hit)")
			}
			if cl := rec.Cluster; cl != nil {
				fmt.Printf(" [cluster: %d shards, versions=%v", cl.Shards, cl.Versions)
				if len(cl.Pruned) > 0 {
					fmt.Printf(", pruned=%v", cl.Pruned)
				}
				fmt.Printf("]")
			}
			fmt.Println()
			if m := rec.Metrics; m != nil {
				fmt.Printf("reads=%d writes=%d checks=%d cpu=%.6fs total=%.3fs (5ms/IO)\n",
					m.ReadIOs, m.WriteIOs, m.DomChecks, m.CPUSeconds, m.TotalSeconds)
			}
			if rec.Plan != nil {
				buf, err := json.MarshalIndent(rec.Plan, "", "  ")
				if err != nil {
					return err
				}
				fmt.Printf("plan: %s\n", buf)
			}
			if printed < rec.Count {
				fmt.Printf("  ... %d more certified\n", rec.Count-printed)
			}
			return nil
		}
	}
}

func (c *client) postJSON(path string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return fmt.Errorf("reach server: %w", err)
	}
	return decodeResponse(resp, out)
}

func decodeResponse(resp *http.Response, out any) error {
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			return fmt.Errorf("server: %s (HTTP %d)", e.Error, resp.StatusCode)
		}
		return fmt.Errorf("server: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
