package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// The traced run. This change may not touch the program, so the layers
// are measured from outside: in one process, single-threaded, each op
// of a workload's cycle is executed at successive depths of the call
// stack, every depth a call into one module's exported API on the same
// seeded inputs:
//
//	d0  http     a request to an in-process httptest server
//	d1  serve    Server.Handler().ServeHTTP with a recorder (cluster: Coordinator.Handler)
//	d2  tss      Table.QueryContext / QueryStream / ApplyBatch, Dynamic.QueryContext
//	             (cluster: the same request sent to each shard directly)
//	d3  plan     plan.New + Plan.Run / RunStream, MemoCache.Advance
//	d4  core     the call d3's Explain names: Algorithm.Run, the sTSS cursor,
//	             DynamicDB.QueryTSSContext, MaintainSkyline + ScoreIndex.Advance
//
// Every call is a span; the spans of one op share its id and point at
// the depth above as their parent. A layer's self time is the median,
// over the ops of a class, of a depth's duration minus the next
// depth's, both taken on the same op.
const (
	d0 = iota
	d1
	d2
	d3
	d4
	depths
)

var layerOf = [depths]string{"http", "serve", "tss", "plan", "core"}

// layerName is the layer a workload's depth measures. Behind the
// coordinator d1 is the cluster layer and d2 its shard legs.
func layerName(workload string, d int) string {
	if workload == clName && d == d1 {
		return "cluster"
	}
	if workload == clName && d == d2 {
		return "legs"
	}
	return layerOf[d]
}

// span is one line of bench/out/trace-<workload>.jsonl.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // span id of the depth above, -1 at the top
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	Class    string `json:"class"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"` // since the traced run began
	End      int64  `json:"end_ns"`
}

// opDurations are one op's per-depth durations in milliseconds; NaN
// marks a depth the op does not have.
type opDurations [depths]float64

func (od *opDurations) has(d int) bool { return !math.IsNaN(od[d]) }

type tracer struct {
	epoch time.Time
	spans []span
	ops   int
	// byClass[workload][class] lists the ops of a class in run order.
	byClass map[string]map[string][]*opDurations
	errs    []error
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), byClass: map[string]map[string][]*opDurations{}}
}

// opTrace records the depths of one op.
type opTrace struct {
	t        *tracer
	workload string
	class    string
	id       int
	parent   int
	dur      *opDurations
}

func (t *tracer) op(workload, class string) *opTrace {
	d := &opDurations{}
	for i := range d {
		d[i] = math.NaN()
	}
	if t.byClass[workload] == nil {
		t.byClass[workload] = map[string][]*opDurations{}
	}
	t.byClass[workload][class] = append(t.byClass[workload][class], d)
	t.ops++
	return &opTrace{t: t, workload: workload, class: class, id: t.ops, parent: -1, dur: d}
}

// at runs fn as the op's depth-d span. A failing call is recorded and
// leaves the depth without a duration.
func (o *opTrace) at(d int, name string, fn func() error) {
	start := time.Now()
	if err := fn(); err != nil {
		o.t.errs = append(o.t.errs, fmt.Errorf("%s/%s d%d %s: %w", o.workload, o.class, d, name, err))
		return
	}
	o.record(d, name, start, time.Since(start))
}

// record adds the op's depth-d span.
func (o *opTrace) record(d int, name string, start time.Time, dur time.Duration) {
	id := len(o.t.spans)
	begin := start.Sub(o.t.epoch).Nanoseconds()
	o.t.spans = append(o.t.spans, span{
		ID: id, Parent: o.parent, Workload: o.workload, Op: o.id, Class: o.class,
		Layer: layerName(o.workload, d), Name: name, Start: begin, End: begin + dur.Nanoseconds(),
	})
	o.parent = id
	o.dur[d] = ms(dur)
}

// depthMedian is the median duration of a class at one depth, in ms.
func (t *tracer) depthMedian(workload, class string, d int) float64 {
	var xs []float64
	for _, od := range t.byClass[workload][class] {
		if od.has(d) {
			xs = append(xs, od[d])
		}
	}
	if len(xs) == 0 {
		t.errs = append(t.errs, fmt.Errorf("%s/%s: no span at d%d", workload, class, d))
		return 0
	}
	return median(xs)
}

// self is a layer's self time in ms: the median over the class's ops
// of depth `upper` minus depth `lower`, paired per op so that drift
// between ops cancels. A difference below the run's noise reads 0, not
// negative.
func (t *tracer) self(workload, class string, upper, lower int) float64 {
	var xs []float64
	for _, od := range t.byClass[workload][class] {
		if od.has(upper) && od.has(lower) {
			xs = append(xs, od[upper]-od[lower])
		}
	}
	if len(xs) == 0 {
		t.errs = append(t.errs, fmt.Errorf("%s/%s: no d%d/d%d pair", workload, class, upper, lower))
		return 0
	}
	if m := median(xs); m > 0 {
		return m
	}
	return 0
}

// writeSpans writes one workload's spans as JSON lines.
func (t *tracer) writeSpans(e env, workload string) error {
	f, err := os.Create(e.outPath("trace-" + workload + ".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if t.spans[i].Workload == workload {
			if err := enc.Encode(&t.spans[i]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct {
	name  string
	value float64
	unit  string
}

// ladderCycles is how many cycles of each workload the ladder runs:
// ten for a full-length run, fewer when --seconds asks for a short one.
func ladderCycles(seconds float64) int {
	n := int(seconds / 4)
	if n < 2 {
		return 2
	}
	if n > 10 {
		return 10
	}
	return n
}

// runTrace is the traced run. The contract wants every per-layer
// metric from every traced run, whichever workload it names, so the
// run always climbs all four ladders and takes every direct probe; the
// selected workloads only decide which span files are written.
func runTrace(e env, selected []*workload, seed int64, seconds, scale float64) (*report, error) {
	t := newTracer()
	cycles := ladderCycles(seconds)
	var out []layerMetric

	// The ladders climb the first table content.
	fixtures := map[string]*fixture{}
	for _, w := range workloads {
		fixtures[w.name] = w.build(seed, contents[0], scale)
	}
	cs, qc, sc, cl := fixtures[csName], fixtures[qcName], fixtures[scName], fixtures[clName]

	for _, step := range []func() ([]layerMetric, error){
		func() ([]layerMetric, error) { return ladderCursorStream(t, cs, cycles) },
		func() ([]layerMetric, error) { return ladderQueryCold(t, qc, cycles, seed) },
		func() ([]layerMetric, error) { return ladderServeChurn(e, t, sc, cycles) },
		func() ([]layerMetric, error) { return ladderClusterScatter(t, cl, 2*cycles) }, // its ops are cheap and close together
		func() ([]layerMetric, error) {
			return probes(e, cs.tables[0], qc.tables[0], qc.tables[1], sc.tables[0], cl.tables[0], seed)
		},
	} {
		ms, err := step()
		if err != nil {
			return nil, err
		}
		out = append(out, ms...)
	}

	// A failed call is one failed op; t.ops counts ladder ops and the
	// ladders' oracle checks.
	rep := &report{Correct: len(t.errs) == 0, Seed: seed, Traced: true, Metrics: map[string]value{},
		Attempted: t.ops, Failed: len(t.errs)}
	for _, err := range t.errs {
		fmt.Fprintln(os.Stderr, "bench: trace:", err)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].name < out[j].name })
	for _, m := range out {
		fmt.Printf("%s %.6g %s\n", m.name, m.value, m.unit)
		rep.Metrics[m.name] = value{Value: m.value, Unit: m.unit}
	}
	for _, w := range selected {
		if err := t.writeSpans(e, w.name); err != nil {
			return nil, err
		}
	}
	t.printShares()
	printE2ERatios(e, t, fixtures, seed)
	return rep, nil
}

// printShares shows, per class, how its d0 median splits into layer
// self times: each depth against the next depth the class has, paired
// per op like every self time.
func (t *tracer) printShares() {
	for _, w := range workloads {
		classes := make([]string, 0, len(t.byClass[w.name]))
		for class := range t.byClass[w.name] {
			classes = append(classes, class)
		}
		sort.Strings(classes)
		for _, class := range classes {
			var have []int
			for d := 0; d < depths; d++ {
				if t.byClass[w.name][class][0].has(d) {
					have = append(have, d)
				}
			}
			if len(have) == 0 || have[0] != d0 {
				continue
			}
			total := t.depthMedian(w.name, class, d0)
			fmt.Printf("trace.share %s/%s d0=%.3gms", w.name, class, total)
			for i, d := range have {
				self := t.depthMedian(w.name, class, d)
				if i+1 < len(have) {
					self = t.self(w.name, class, d, have[i+1])
				}
				fmt.Printf(" %s=%.1f%%", layerName(w.name, d), 100*self/total)
			}
			fmt.Println()
		}
	}
}

// printE2ERatios shows how far the in-process ladder is from the
// process-separated numbers: per class, the d0 median over the untraced
// end-to-end median of the last untraced run of the same seed, when
// bench/out/results.json holds one.
func printE2ERatios(e env, t *tracer, fixtures map[string]*fixture, seed int64) {
	b, err := os.ReadFile(e.outPath("results.json"))
	if err != nil {
		return
	}
	var prev report
	if json.Unmarshal(b, &prev) != nil || prev.Seed != seed {
		return
	}
	for _, run := range prev.Runs {
		fix := fixtures[run.Workload]
		if fix == nil {
			continue
		}
		for _, m := range fix.metrics {
			v, ok := run.Metrics[m.name]
			if !ok || m.first || m.p != 50 || v.Value == 0 || len(t.byClass[run.Workload][m.class]) == 0 {
				continue
			}
			fmt.Printf("trace.e2e_ratio %s/%s %.3f ratio\n", run.Workload, m.name, t.depthMedian(run.Workload, m.class, d0)/v.Value)
		}
	}
}
