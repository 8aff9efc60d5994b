package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// env is where a run finds the server binary and may write files.
type env struct {
	bin string // built tssserve
	out string // bench/out: results, traces, temp data dirs
}

// deployment is one started instance of a workload's topology.
type deployment struct {
	base  string // where clients send requests
	procs []*child
}

func (d *deployment) stop() {
	for _, c := range d.procs {
		c.stop()
	}
}

func (d *deployment) pids() []int {
	pids := make([]int, len(d.procs))
	for i, c := range d.procs {
		pids[i] = c.cmd.Process.Pid
	}
	return pids
}

// deploy starts the topology, loads the tables and runs one warm-up
// cycle per client. Everything in here is the workload's setup time.
func deploy(e env, fix *fixture) (*deployment, error) {
	d := &deployment{}
	fail := func(err error) (*deployment, error) {
		d.stop()
		return nil, err
	}
	var args []string
	if fix.topo.durable {
		dir, err := tempDir(e.out, "data-")
		if err != nil {
			return fail(err)
		}
		args = append(args, "-data-dir", dir, "-checkpoint-every", fmt.Sprint(checkpointEvery))
	}
	if n := fix.topo.shards; n > 0 {
		urls := ""
		for i := 0; i < n; i++ {
			c, err := startServer(e.bin, "-shard-of", fmt.Sprintf("%d/%d", i, n))
			if err != nil {
				return fail(err)
			}
			d.procs = append(d.procs, c)
			if i > 0 {
				urls += ","
			}
			urls += c.url
		}
		args = append(args, "-coordinator", urls)
	}
	front, err := startServer(e.bin, args...)
	if err != nil {
		return fail(err)
	}
	d.procs = append(d.procs, front)
	d.base = front.url

	c := newClient(d.base)
	defer c.close()
	for _, t := range fix.tables {
		resp, err := c.send(&op{method: http.MethodPost, path: "/tables", body: t.body})
		if err != nil {
			return fail(fmt.Errorf("create table %s: %w", t.spec.Name, err))
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	// Warm-up runs the clients last to first, so the lead client's
	// cycle (the writer's, where there is one) meets caches the other
	// clients have already filled.
	for i := len(fix.clients) - 1; i >= 0; i-- {
		l := fix.clients[i]
		if l.reset != nil {
			l.reset()
		}
		x := newRunner(c, l.classes, nil)
		l.cycle(x)
		if x.failed > 0 {
			return fail(fmt.Errorf("warm-up of %s: %w", l.name, x.errs[0]))
		}
	}
	return d, nil
}

// samples are one op class's completed-op latencies in milliseconds.
type samples struct {
	first, total []float64
}

// runner executes one client's ops and records their timings.
type runner struct {
	c         *client
	halt      *atomic.Bool // nil: never halted
	classes   map[string]*samples
	attempted int
	failed    int
	errs      []error // the first few failures, for the report
	keep      bytes.Buffer
}

func newRunner(c *client, classes []string, halt *atomic.Bool) *runner {
	x := &runner{c: c, halt: halt, classes: map[string]*samples{}}
	for _, cl := range classes {
		x.classes[cl] = &samples{}
	}
	return x
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// do sends one op on the timed path. It reports false — and sends
// nothing — once the run has been halted, and false for a failed op,
// which has no latency and counts against the workload.
func (x *runner) do(o *op) bool {
	_, ok := x.run(o, nil)
	return ok
}

// doKeep is do for a buffered op whose body the caller decodes after
// the timer has stopped.
func (x *runner) doKeep(o *op) ([]byte, bool) {
	return x.run(o, &x.keep)
}

func (x *runner) run(o *op, keep *bytes.Buffer) ([]byte, bool) {
	if x.halt != nil && x.halt.Load() {
		return nil, false
	}
	x.attempted++
	t, err := x.c.do(o, keep)
	if err != nil {
		x.fail(err)
		return nil, false
	}
	s := x.classes[o.class]
	s.first = append(s.first, ms(t.first))
	s.total = append(s.total, ms(t.total))
	return x.keep.Bytes(), true
}

func (x *runner) fail(err error) {
	x.failed++
	if len(x.errs) < 3 {
		x.errs = append(x.errs, err)
	}
}

// phase is the outcome of one measured phase.
type phase struct {
	seconds   float64
	classes   map[string]*samples
	cycles    []float64 // the lead client's cycle times, ms
	attempted int
	failed    int
	errs      []error
	cpuS      float64 // server CPU over the phase, all processes
	rssMB     float64 // server peak RSS at phase end, all processes
}

func (p *phase) ops() int { return p.attempted - p.failed }

// measure drives every client's cycle for the given duration. The
// first client leads: it stops at the first cycle boundary past the
// deadline, so the op mix is whole cycles and identical run to run; the
// others stop at their next op once it has. A system too slow for
// floorP50 cycles in that time runs on until it has them: the phase
// gets longer, not its percentiles thinner.
func measure(d *deployment, fix *fixture, seconds float64) (*phase, error) {
	pids := d.pids()
	cpu0, err := sumOver(pids, cpuSeconds)
	if err != nil {
		return nil, err
	}
	var halt atomic.Bool
	runners := make([]*runner, len(fix.clients))
	clients := make([]*client, len(fix.clients))
	for i, l := range fix.clients {
		clients[i] = newClient(d.base)
		defer clients[i].close()
		runners[i] = newRunner(clients[i], l.classes, &halt)
	}
	p := &phase{classes: map[string]*samples{}}
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for i, l := range fix.clients {
		wg.Add(1)
		go func(lead bool, l *loop, x *runner) {
			defer wg.Done()
			if !lead {
				for !halt.Load() {
					l.cycle(x)
				}
				return
			}
			for now := start; now.Before(deadline) || (len(p.cycles) < floorP50 && x.failed == 0); {
				l.cycle(x)
				end := time.Now()
				p.cycles = append(p.cycles, ms(end.Sub(now)))
				now = end
			}
			halt.Store(true)
		}(i == 0, l, runners[i])
	}
	wg.Wait()
	p.seconds = time.Since(start).Seconds()
	cpu1, err := sumOver(pids, cpuSeconds)
	if err != nil {
		return nil, err
	}
	p.cpuS = cpu1 - cpu0
	if p.rssMB, err = sumOver(pids, peakRSSMB); err != nil {
		return nil, err
	}
	for _, x := range runners {
		p.attempted += x.attempted
		p.failed += x.failed
		p.errs = append(p.errs, x.errs...)
		for cl, s := range x.classes {
			p.classes[cl] = s
		}
	}
	return p, nil
}

func sumOver(pids []int, read func(int) (float64, error)) (float64, error) {
	var sum float64
	for _, pid := range pids {
		v, err := read(pid)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// value is one reported metric.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Extra   bool    `json:"extra,omitempty"` // workload-specific, outside BENCHMARK.json
	// PerContent holds a latency metric's value on each table content;
	// Value is their mean.
	PerContent []float64 `json:"perContent,omitempty"`
}

// result is one workload run, as written to results.json.
type result struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Contents  []int64          `json:"contents"`
	Seconds   float64          `json:"measuredSeconds"`
	Rows      map[string]int   `json:"rows"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Errors    []string         `json:"errors,omitempty"`
	Metrics   map[string]value `json:"metrics"`
	order     []string         // metric print order
}

func (r *result) set(name string, v value) {
	if _, dup := r.Metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = v
}

// setupRuns is how many times a run deploys each table content;
// setup_s is the median over all of a run's deployments.
const setupRuns = 2

// runWorkload is one end-to-end run. Each table content in turn is
// generated, set up (setupRuns times, for a steady setup_s), measured
// for its share of the seconds and verified. A latency metric is the
// mean over the contents of the class's percentile on each; the totals
// are taken over all of them.
func runWorkload(e env, w *workload, seed int64, seconds, scale float64) (*result, error) {
	res := &result{Workload: w.name, Seed: seed, Contents: contents, Rows: map[string]int{}, Metrics: map[string]value{}}
	var setupS []float64
	var phases []*phase
	var metrics []metricDef
	for _, content := range contents {
		fix := w.build(seed, content, scale)
		metrics = fix.metrics
		for _, t := range fix.tables {
			res.Rows[t.spec.Name] = len(t.spec.Rows)
		}
		p, err := runContent(e, fix, seconds/float64(len(contents)), &setupS, res)
		if err != nil {
			return res, fmt.Errorf("%s: content %d: %w", w.name, content, err)
		}
		phases = append(phases, p)
	}

	var total phase
	for _, p := range phases {
		total.seconds += p.seconds
		total.attempted += p.attempted
		total.failed += p.failed
		total.cpuS += p.cpuS
		total.rssMB += p.rssMB / float64(len(phases))
	}
	res.Seconds = total.seconds
	if total.ops() == 0 {
		return res, fmt.Errorf("%s: no op completed", w.name)
	}
	res.set("setup_s", value{Value: median(setupS), Unit: "s", Samples: len(setupS)})
	res.set("ops_per_s", value{Value: float64(total.ops()) / total.seconds, Unit: "1/s", Samples: total.ops()})
	res.set("cpu_ms_per_op", value{Value: total.cpuS * 1000 / float64(total.ops()), Unit: "ms", Samples: total.ops()})
	res.set("peak_rss_mb", value{Value: total.rssMB, Unit: "MB", Samples: len(phases)})
	latency := func(m metricDef, of func(*phase) []float64) error {
		v := value{Unit: "ms", Extra: m.extra}
		for _, p := range phases {
			xs := of(p)
			q, err := floored(m.class, xs, m.p)
			if err != nil {
				return fmt.Errorf("%s: %s: %w", w.name, m.name, err)
			}
			v.PerContent = append(v.PerContent, q)
			v.Value += q / float64(len(phases))
			v.Samples += len(xs)
		}
		res.set(m.name, v)
		return nil
	}
	if err := latency(p50("cycle_p50_ms", "cycle"), func(p *phase) []float64 { return p.cycles }); err != nil {
		return res, err
	}
	for _, m := range metrics {
		err := latency(m, func(p *phase) []float64 {
			if m.first {
				return p.classes[m.class].first
			}
			return p.classes[m.class].total
		})
		if err != nil {
			return res, err
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// runContent deploys one content's fixture, measures it and has the
// oracle check every class's answer on the final state. Each check is an
// op of its own: a mismatch is a failed op.
func runContent(e env, fix *fixture, seconds float64, setupS *[]float64, res *result) (*phase, error) {
	var d *deployment
	for i := 0; i < setupRuns; i++ {
		if d != nil {
			d.stop()
		}
		start := time.Now()
		var err error
		if d, err = deploy(e, fix); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		*setupS = append(*setupS, time.Since(start).Seconds())
	}
	defer d.stop()

	p, err := measure(d, fix, seconds)
	if err != nil {
		return nil, err
	}
	res.Attempted += p.attempted
	res.Failed += p.failed
	for _, err := range p.errs {
		res.Errors = append(res.Errors, err.Error())
	}
	c := newClient(d.base)
	defer c.close()
	for _, err := range fix.checks(c) {
		res.Attempted++
		if err != nil {
			res.Failed++
			res.Errors = append(res.Errors, "oracle: "+err.Error())
		}
	}
	return p, nil
}

// outPath names a file under the output directory.
func (e env) outPath(name string) string { return filepath.Join(e.out, name) }
