package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// countdownCtx cancels deterministically after a fixed number of Err
// checks — the artificially slow query of the regression test: the
// budget expires mid-run, not before the handler starts.
type countdownCtx struct {
	context.Context
	calls atomic.Int64
	after int64
	err   error
}

func (c *countdownCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return c.err
	}
	return nil
}

// TestDynamicQueryCanceledMidRun is the -request-timeout regression
// test for dynamic (orders) queries: before PR 5 the budget was checked
// only *before* starting, so a slow run held its worker to completion.
// An orders query is the planned query under the request's domains, so
// it is canceled where every query is: between pipeline stages and
// inside the chosen algorithm's scan (core.Options.Ctx). A budget
// expiring mid-run aborts the query and maps to the 499/503 statuses
// every query uses.
func TestDynamicQueryCanceledMidRun(t *testing.T) {
	cases := []struct {
		name       string
		err        error
		wantStatus int
	}{
		{"client gone", context.Canceled, 499},
		{"deadline", context.DeadlineExceeded, http.StatusServiceUnavailable},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// A fresh server per case: a warmed memo would answer before
			// the algorithm ever runs.
			s := New(8)
			if _, err := s.CreateTable(flightsSpec("flights")); err != nil {
				t.Fatal(err)
			}
			// after=2 lets the handler's pre-start check pass, so the
			// cancellation observed below happened mid-run.
			ctx := &countdownCtx{Context: context.Background(), after: 2, err: tc.err}
			var handler http.Handler = s.Handler()
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				handler.ServeHTTP(w, r.WithContext(ctx))
			}))
			defer ts.Close()

			// A dynamic query with a per-request preference DAG — the class
			// that previously ran to completion regardless of the budget.
			body := map[string]any{
				"orders": []map[string]any{{"edges": [][2]string{{"b", "a"}}}},
			}
			var got errorResponse
			status := doJSON(t, http.MethodPost, ts.URL+"/tables/flights/query", body, &got)
			if status != tc.wantStatus {
				t.Fatalf("status %d, want %d (body %+v)", status, tc.wantStatus, got)
			}
			if !strings.Contains(got.Error, "canceled") {
				t.Fatalf("error %q does not mention cancellation", got.Error)
			}
			if ctx.calls.Load() <= 2 {
				t.Fatalf("context checked %d times — cancellation was not mid-run", ctx.calls.Load())
			}
			// The snapshot keeps serving: the same query under no budget
			// answers normally.
			var ok QueryResponse
			ts2 := httptest.NewServer(handler)
			defer ts2.Close()
			if status := doJSON(t, http.MethodPost, ts2.URL+"/tables/flights/query", body, &ok); status != http.StatusOK {
				t.Fatalf("follow-up query status %d", status)
			}
			if ok.Count == 0 {
				t.Fatal("follow-up query returned no skyline")
			}
		})
	}
}
