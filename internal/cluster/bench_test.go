package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/serve"
)

// discardWriter is an http.ResponseWriter that keeps only the status.
type discardWriter struct {
	h      http.Header
	status int
}

func (d *discardWriter) Header() http.Header {
	if d.h == nil {
		d.h = make(http.Header)
	}
	return d.h
}

func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

func (d *discardWriter) WriteHeader(status int) { d.status = status }

// BenchmarkCoordinatorRead measures one buffered read through the
// coordinator's handler over two shard servers holding the paper's
// static table (2 TO + 2 PO, independent) at N = 8 000, both shards'
// skylines memoised. full-hit and topk-hit (a dp-idp top-10) repeat a
// read whose shards have not changed; full-miss applies a one-row batch
// to shard 0 before every read, outside the timer, so each read scatters
// and merges again.
func BenchmarkCoordinatorRead(b *testing.B) {
	cfg := exp.StaticDefaults(1)
	cfg.N = 8000
	spec := serve.SpecFromDataset("t", exp.BuildDataset(cfg))
	shards := make([]string, 2)
	for i := range shards {
		s := serve.NewWithConfig(serve.Config{Shard: &serve.ShardIdentity{Index: i, Count: len(shards)}})
		ts := httptest.NewServer(s.Handler())
		b.Cleanup(ts.Close)
		shards[i] = ts.URL
	}
	co, err := New(Config{Shards: shards})
	if err != nil {
		b.Fatal(err)
	}
	h := co.Handler(http.NotFoundHandler())
	post := func(url string, body any) {
		buf, err := json.Marshal(body)
		if err != nil {
			b.Fatal(err)
		}
		resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			b.Fatalf("POST %s: HTTP %d", url, resp.StatusCode)
		}
	}
	w := &discardWriter{}
	read := func(body string) {
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/tables/t/query", strings.NewReader(body)))
		if w.status != http.StatusOK {
			b.Fatalf("read %s: HTTP %d", body, w.status)
		}
	}
	create, err := json.Marshal(spec)
	if err != nil {
		b.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/tables", bytes.NewReader(create)))
	if rec.Code != http.StatusCreated {
		b.Fatalf("create: HTTP %d %s", rec.Code, rec.Body)
	}
	// The one-row batch: a copy of one of shard 0's rows, one worse on
	// every TO column, so the row it copies dominates it and the skyline
	// stays put however many are added.
	var worse serve.RowSpec
	for _, r := range spec.Rows {
		if co.table("t").part.route(r) == 0 {
			worse = serve.RowSpec{PO: r.PO}
			for _, v := range r.TO {
				worse.TO = append(worse.TO, v+1)
			}
			break
		}
	}
	batch := serve.BatchRequest{Add: []serve.RowSpec{worse}}

	for _, bc := range []struct {
		name, body string
		miss       bool
	}{
		{"full-hit", `{}`, false},
		{"topk-hit", `{"topK": 10, "rank": "dpidp"}`, false},
		{"full-miss", `{}`, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			read(bc.body) // warm: both shards memoise their skylines
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bc.miss {
					b.StopTimer()
					post(shards[0]+"/tables/t/rows:batch", batch)
					b.StartTimer()
				}
				read(bc.body)
			}
		})
	}
}
