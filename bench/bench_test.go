package main

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ p, want float64 }{{50, 3}, {90, 4.6}, {25, 2}} {
		if got := percentile(append([]float64(nil), xs...), tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("p%.0f = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one sample = %v", got)
	}
}

func TestSampleFloors(t *testing.T) {
	xs := make([]float64, floorP90)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := floored("c", xs[:floorP50-1], 50); err == nil {
		t.Error("p50 accepted below its floor")
	}
	if _, err := floored("c", xs[:floorP50], 50); err != nil {
		t.Errorf("p50 at its floor: %v", err)
	}
	if _, err := floored("c", xs[:floorP90-1], 90); err == nil {
		t.Error("p90 accepted below its floor")
	}
	if _, err := floored("c", xs, 90); err != nil {
		t.Errorf("p90 at its floor: %v", err)
	}
}

// The driver computes spreads with Python's statistics.quantiles(n=4).
func TestQuartileSpread(t *testing.T) {
	// quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// quantiles([2, 4, 4, 5, 11], n=4) == [3.0, 4.0, 8.0]
	if got, want := quartileSpread([]float64{4, 11, 2, 5, 4}), (8.0-3.0)/4.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestProcReaders(t *testing.T) {
	cpu, err := parseStatCPU("4242 (a b) c) S 1 2 3 4 5 6 7 8 9 10 150 50 0 0 20 0 3 0 100 200 300")
	if err != nil || cpu != 2.0 {
		t.Errorf("parseStatCPU = %v, %v; want 2 s", cpu, err)
	}
	if _, err := parseStatCPU("garbage"); err == nil {
		t.Error("malformed stat line accepted")
	}
	rss, err := parseStatusHWM("Name:\tx\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n")
	if err != nil || rss != 20 {
		t.Errorf("parseStatusHWM = %v, %v; want 20 MB", rss, err)
	}
	if _, err := parseStatusHWM("Name:\tx\n"); err == nil {
		t.Error("status without VmHWM accepted")
	}
	// And against the live /proc of this process.
	if cpu, err := cpuSeconds(os.Getpid()); err != nil || cpu < 0 {
		t.Errorf("cpuSeconds(self) = %v, %v", cpu, err)
	}
	if rss, err := peakRSSMB(os.Getpid()); err != nil || rss <= 0 {
		t.Errorf("peakRSSMB(self) = %v, %v", rss, err)
	}
}

func TestScanStream(t *testing.T) {
	ok := `{"type":"header","table":"t"}
{"type":"heartbeat"}
{"type":"row","row":{"row":1,"to":[1]}}
{"type":"row","row":{"row":2,"to":[2]}}
{"type":"trailer","count":2}
`
	tm, err := scanStream(strings.NewReader(ok), time.Now())
	if err != nil || tm.rows != 2 || tm.first <= 0 {
		t.Errorf("scanStream = %+v, %v", tm, err)
	}
	if _, err := scanStream(strings.NewReader(`{"type":"header"}`+"\n"+`{"type":"row"}`+"\n"), time.Now()); err == nil {
		t.Error("stream without a trailer accepted")
	}
	if _, err := scanStream(strings.NewReader(`{"type":"error","error":"boom"}`+"\n"), time.Now()); err == nil {
		t.Error("in-band error accepted")
	}
	a, err := decodeStream([]byte(ok))
	if err != nil || len(a.rows) != 2 || a.count != 2 {
		t.Errorf("decodeStream = %+v, %v", a, err)
	}
}

// The mirror replays batches with the server's rule: removals by
// current index first, survivors renumbered in order, adds appended.
func TestApplyDelta(t *testing.T) {
	ds := &core.Dataset{}
	for i := 0; i < 5; i++ {
		ds.Pts = append(ds.Pts, core.Point{ID: int32(i), TO: []int32{int32(10 * i)}})
	}
	next, delta := applyDelta(ds, []int{3, 1}, []core.Point{{TO: []int32{77}}})
	var got []int32
	for i, p := range next.Pts {
		if p.ID != int32(i) {
			t.Errorf("row %d has id %d", i, p.ID)
		}
		got = append(got, p.TO[0])
	}
	if want := []int32{0, 20, 40, 77}; !equalInt32(got, want) {
		t.Errorf("rows = %v, want %v", got, want)
	}
	if want := []int32{0, -1, 1, -1, 2}; !equalInt32(delta.OldToNew, want) || delta.Added != 1 {
		t.Errorf("delta = %v +%d, want %v +1", delta.OldToNew, delta.Added, want)
	}
	if len(ds.Pts) != 5 || ds.Pts[1].ID != 1 {
		t.Error("applyDelta changed its input")
	}
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestWriterDraw(t *testing.T) {
	tb := newTable("t", staticConfig(3, 300), 1)
	w := newWriter(tb, 3)
	w.members = oracleSkyline(tb.ds.Domains, tb.ds.Pts)
	isMember := map[int]bool{}
	for _, r := range w.members {
		isMember[r] = true
	}
	remove, add, req := w.draw(8, 1, 4)
	if len(remove) != 9 || len(add) != 4 || len(req.Add) != 4 {
		t.Fatalf("draw: %d removals, %d adds", len(remove), len(add))
	}
	seen := map[int]bool{}
	members := 0
	for _, r := range remove {
		if seen[r] {
			t.Errorf("row %d removed twice", r)
		}
		seen[r] = true
		if isMember[r] {
			members++
		}
	}
	if members != 1 {
		t.Errorf("%d members removed, want 1", members)
	}
	// The next member removal brings the parked member back.
	w.applied(remove, add)
	w.members = oracleSkyline(w.mirror.Domains, w.mirror.Pts)
	parked := pointKey(w.parked)
	_, add2, _ := w.draw(0, 1, 1)
	if len(add2) != 1 || pointKey(&add2[0]) != parked {
		t.Errorf("the removed member did not come back with the next removal")
	}
	w.reset()
	if len(w.mirror.Pts) != 300 || w.members != nil || w.parked != nil {
		t.Error("reset did not return to the initial table")
	}
}

// The oracle against core's exhaustive pairwise ground truth.
func TestOracleSkyline(t *testing.T) {
	tb := newTable("t", staticConfig(5, 400), 1)
	got := oracleSkyline(tb.ds.Domains, tb.ds.Pts)
	want := core.NaiveSkylineUnder(tb.ds.Domains, tb.ds.Pts)
	if len(got) != len(want) {
		t.Fatalf("oracle has %d rows, naive %d", len(got), len(want))
	}
	for i := range got {
		if int32(got[i]) != want[i] {
			t.Fatalf("row %d: oracle %d, naive %d", i, got[i], want[i])
		}
	}
	// Scores: every dominated row hands out exactly 1 in total.
	score := oracleDPIDP(tb.ds.Domains, tb.ds.Pts, got)
	var sum float64
	for _, s := range score {
		sum += s
	}
	if dominated := float64(len(tb.ds.Pts) - len(got)); math.Abs(sum-dominated) > 1e-6 {
		t.Errorf("scores sum to %v, want %v dominated rows", sum, dominated)
	}
}

// The seed draws the order of the rows; the content draws the rows.
func TestSeedKeepsContent(t *testing.T) {
	a, b := newTable("t", staticConfig(1, 300), 1), newTable("t", staticConfig(2, 300), 1)
	idx := make([]int, 300)
	for i := range idx {
		idx[i] = i
	}
	if err := sameMultiset(pointMultiset(a.ds.Pts, idx), pointMultiset(b.ds.Pts, idx)); err != nil {
		t.Errorf("seeds 1 and 2 hold different rows: %v", err)
	}
	same := true
	for i := range a.ds.Pts {
		if pointKey(&a.ds.Pts[i]) != pointKey(&b.ds.Pts[i]) {
			same = false
		}
	}
	if same {
		t.Error("seeds 1 and 2 give the same row order")
	}
	c := newTable("t", staticConfig(1, 300), 1)
	for i := range a.ds.Pts {
		if pointKey(&a.ds.Pts[i]) != pointKey(&c.ds.Pts[i]) {
			t.Fatal("the same seed gives different inputs")
		}
	}
	other := newTable("t", staticConfig(1, 300), 2)
	if sameMultiset(pointMultiset(a.ds.Pts, idx), pointMultiset(other.ds.Pts, idx)) == nil {
		t.Error("contents 1 and 2 hold the same rows")
	}
	r1, _ := queryOrders(rand.New(rand.NewSource(4)), a.ds.Domains)
	r2, _ := queryOrders(rand.New(rand.NewSource(4)), a.ds.Domains)
	if string(mustJSON(r1)) != string(mustJSON(r2)) {
		t.Error("the same seed gives different query orders")
	}
}

func TestBenchmarkFileMatchesWorkloads(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, names, err := readBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(names), len(workloads))
	}
	for i, w := range workloads {
		if names[i] != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, names[i], w.name)
		}
		gated := map[string]bool{"setup_s": true, "ops_per_s": true, "cpu_ms_per_op": true, "peak_rss_mb": true, "cycle_p50_ms": true}
		for _, m := range w.build(1, contents[0], 0).metrics {
			if !m.extra {
				gated[m.name] = true
			}
		}
		for _, m := range bf.EndToEnd {
			if !gated[m.Name] {
				t.Errorf("%s does not report end-to-end metric %s", w.name, m.Name)
			}
			delete(gated, m.Name)
		}
		for name := range gated {
			t.Errorf("%s reports %s, which BENCHMARK.json does not list", w.name, name)
		}
	}
}

// TestSmoke runs all four workloads against real tssserve processes
// and the traced pass, small and short.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts server processes")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	e := env{out: filepath.Join(t.TempDir(), "out")}
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		t.Fatal(err)
	}
	if e.bin, err = buildServer(root); err != nil {
		t.Fatal(err)
	}
	defer stopAll()
	rep, err := runEndToEnd(e, workloads, 1, 1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 {
		t.Errorf("end to end: %d of %d ops failed", rep.Failed, rep.Attempted)
	}
	bf, _, err := readBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, m := range bf.EndToEnd {
			if v, ok := rep.Metrics[w.name+"/"+m.Name]; !ok || v.Value <= 0 {
				t.Errorf("%s/%s = %v (present: %v)", w.name, m.Name, v.Value, ok)
			}
		}
	}

	traced, err := runTrace(e, workloads, 1, 1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !traced.Correct {
		t.Errorf("traced run: %d of %d ops failed", traced.Failed, traced.Attempted)
	}
	for _, m := range bf.PerLayer {
		if _, ok := traced.Metrics[m.Name]; !ok {
			t.Errorf("traced run does not report %s", m.Name)
		}
	}
	if len(traced.Metrics) != len(bf.PerLayer) {
		t.Errorf("traced run reports %d metrics, BENCHMARK.json lists %d", len(traced.Metrics), len(bf.PerLayer))
	}
	for _, w := range workloads {
		if st, err := os.Stat(e.outPath("trace-" + w.name + ".jsonl")); err != nil || st.Size() == 0 {
			t.Errorf("no span file for %s: %v", w.name, err)
		}
	}
}

func TestCheckTopKRejectsWrongRank(t *testing.T) {
	tb := newTable("t", staticConfig(2, 300), 1)
	doms, pts := tb.ds.Domains, tb.ds.Pts
	sky := oracleSkyline(doms, pts)
	score := oracleDPIDP(doms, pts, sky)
	best, worst := sky[0], sky[0]
	for _, m := range sky {
		if score[m] > score[best] {
			best = m
		}
		if score[m] < score[worst] {
			worst = m
		}
	}
	row := func(i int) serve.SkylineRow {
		r := rowSpec(&pts[i])
		return serve.SkylineRow{Row: i, TO: r.TO, PO: r.PO}
	}
	rows := make([]serve.SkylineRow, topK)
	for i := range rows {
		rows[i] = row(worst)
	}
	if score[best] > score[worst] && checkTopK(rows, doms, pts, sky) == nil {
		t.Error("ten copies of the worst member accepted as the top ten")
	}
}
