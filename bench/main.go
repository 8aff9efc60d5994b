// Command bench is the repository's benchmark: it drives real tssserve
// processes through four seeded closed-loop workloads, checks every
// answer against an independent oracle and prints each metric as
// `workload/metric value unit`, ending with one JSON object — the
// contract BENCHMARK.json describes. See README.md.
//
//	bash bench/run.sh --workload cursor-stream --seed 1 --seconds 28 --trace 0
//	bash bench/run.sh --trace 1            # the per-layer ladder
//	bash bench/run.sh --aa 5               # same-code A/A comparison
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all four, one after the other)")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Float64("seconds", 28, "length of the measured phase, shared between the table contents")
		trace   = flag.Int("trace", 0, "1: the traced in-process run that yields the per-layer metrics")
		scale   = flag.Float64("scale", 1, "row-count multiplier (smoke tests)")
		aa      = flag.Int("aa", 0, "A/A mode: two interleaved sets of this many runs of the same build")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	// Children and temp dirs go away however the run ends.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopAll()
		os.Exit(130)
	}()

	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	e := env{out: filepath.Join(root, "bench", "out")}
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		fatal(err)
	}

	selected := workloads
	if *name != "" {
		w, err := lookupWorkload(*name)
		if err != nil {
			fatal(err)
		}
		selected = []*workload{w}
	}

	var rep *report
	switch {
	case *trace == 1:
		rep, err = runTrace(e, selected, *seed, *seconds, *scale)
	default:
		if e.bin, err = buildServer(root); err != nil {
			fatal(err)
		}
		if *aa > 0 {
			err = runAA(e, root, selected, *aa, *seed, *seconds, *scale)
			stopAll()
			if err != nil {
				fatal(err)
			}
			return
		}
		rep, err = runEndToEnd(e, selected, *seed, *seconds, *scale)
	}
	stopAll()
	if err != nil {
		fatal(err)
	}
	rep.Host = hostInfo(root)
	if err := rep.write(e); err != nil {
		fatal(err)
	}
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	stopAll()
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// findRoot walks up from the working directory to the checkout root:
// the directory holding go.mod and cmd/tssserve.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "tssserve", "main.go")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no checkout root (go.mod + cmd/tssserve) above the working directory")
		}
		dir = parent
	}
}

// buildDir is where binaries and the toolchain's caches go, inside the
// checkout.
const buildDir = ".bench_build"

// buildServer compiles ./cmd/tssserve from the checkout's sources.
func buildServer(root string) (string, error) {
	bin := filepath.Join(root, buildDir, "tssserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/tssserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/tssserve: %w\n%s", err, out)
	}
	return bin, nil
}

// host is the provenance every output file records.
type host struct {
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func hostInfo(root string) host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown", CPU: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// A driver's checkout is not a git repository; the commit is then
	// unknown, not an error.
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// report is one invocation's outcome: what the last stdout line and
// bench/out/results.json carry.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	Host      host             `json:"host"`
	Seed      int64            `json:"seed"`
	Traced    bool             `json:"traced"`
	Runs      []*result        `json:"runs,omitempty"`
}

// line is the contract's last line of standard output.
type line struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) write(e env) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := "results.json"
	if r.Traced {
		name = "trace-results.json"
	}
	if err := os.WriteFile(e.outPath(name), append(b, '\n'), 0o644); err != nil {
		return err
	}
	l := line{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]lineMetric{}}
	for name, v := range r.Metrics {
		if !v.Extra {
			l.Metrics[name] = lineMetric{Value: v.Value, Unit: v.Unit}
		}
	}
	b, err = json.Marshal(l)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

// runEndToEnd runs the selected workloads untraced. With one workload
// the reported metric names are bare (the contract's shape); with
// several they are prefixed `workload/`.
func runEndToEnd(e env, selected []*workload, seed int64, seconds, scale float64) (*report, error) {
	rep := &report{Correct: true, Seed: seed, Metrics: map[string]value{}}
	for _, w := range selected {
		res, err := runWorkload(e, w, seed, seconds, scale)
		if res != nil {
			for _, msg := range res.Errors {
				fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.name, msg)
			}
		}
		if err != nil {
			return nil, err
		}
		rep.Runs = append(rep.Runs, res)
		rep.Attempted += res.Attempted
		rep.Failed += res.Failed
		rep.Correct = rep.Correct && res.Correct
		for _, name := range res.order {
			v := res.Metrics[name]
			fmt.Printf("%s/%s %.6g %s (n=%d)\n", w.name, name, v.Value, v.Unit, v.Samples)
			if len(selected) > 1 {
				name = w.name + "/" + name
			}
			rep.Metrics[name] = v
		}
	}
	return rep, nil
}
