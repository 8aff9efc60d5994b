package core

import (
	"fmt"
	"strings"
)

// Capabilities declares what an algorithm can handle, so executors and
// front-ends can dispatch without per-algorithm switches.
type Capabilities struct {
	// POCapable algorithms handle partially ordered attributes; the
	// others (the classic sort-based TO baselines) reject any dataset
	// with PO attributes through Run's error.
	POCapable bool
	// UsesDyadic marks algorithms whose dominance checks lazily build
	// the PO domains' dyadic interval index (unless Options.NoDyadic).
	// Parallel executors pre-build the index for such algorithms before
	// starting workers, keeping the domains read-only inside the pool —
	// an algorithm that builds it lazily without setting this flag is
	// not safe to shard.
	UsesDyadic bool
}

// Algorithm is the uniform interface every skyline algorithm runs
// behind. Run computes the skyline of ds under opt; TO-only algorithms
// return an error when ds has PO attributes.
type Algorithm interface {
	Name() string
	Capabilities() Capabilities
	Run(ds *Dataset, opt Options) (*Result, error)
}

// funcAlgorithm adapts a plain function to the Algorithm interface.
type funcAlgorithm struct {
	name string
	caps Capabilities
	run  func(ds *Dataset, opt Options) (*Result, error)
}

func (a *funcAlgorithm) Name() string               { return a.name }
func (a *funcAlgorithm) Capabilities() Capabilities { return a.caps }
func (a *funcAlgorithm) Run(ds *Dataset, opt Options) (*Result, error) {
	res, err := a.run(ds, opt)
	if err == nil && opt.Ctx != nil {
		// A scan that saw opt.Ctx done stopped early: res is partial.
		if cerr := opt.Ctx.Err(); cerr != nil {
			err = fmt.Errorf("core: %s canceled: %w", a.name, cerr)
		}
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// newAlgorithm wraps a function as an Algorithm.
func newAlgorithm(name string, caps Capabilities, run func(ds *Dataset, opt Options) (*Result, error)) Algorithm {
	return &funcAlgorithm{name: name, caps: caps, run: run}
}

// serving holds the algorithms a plan can run, sorted by name: the
// paper's contribution and the scan-based baselines (§II-A).
var serving = []Algorithm{
	newAlgorithm("bnl", Capabilities{POCapable: true},
		func(ds *Dataset, opt Options) (*Result, error) { return BNL(ds, opt), nil }),
	newAlgorithm("less", Capabilities{}, LESS),
	newAlgorithm("sfs", Capabilities{POCapable: true},
		func(ds *Dataset, opt Options) (*Result, error) { return SFS(ds, opt), nil }),
	newAlgorithm("stss", Capabilities{POCapable: true, UsesDyadic: true},
		func(ds *Dataset, opt Options) (*Result, error) { return STSS(ds, opt), nil }),
}

// Algorithms returns the algorithms a plan can run, sorted by name. The
// slice is shared: callers must not modify it.
func Algorithms() []Algorithm { return serving }

// Baselines returns the index-based baselines the paper evaluates sTSS
// against (§II-C, Chan et al.): BBS+, SDC and SDC+. No plan runs them;
// they are built per call, so a binary that never asks for them does
// not link them.
func Baselines() []Algorithm {
	return []Algorithm{
		newAlgorithm("bbs+", Capabilities{POCapable: true},
			func(ds *Dataset, opt Options) (*Result, error) { return BBSPlus(ds, opt), nil }),
		newAlgorithm("sdc", Capabilities{POCapable: true},
			func(ds *Dataset, opt Options) (*Result, error) { return SDC(ds, opt), nil }),
		newAlgorithm("sdc+", Capabilities{POCapable: true},
			func(ds *Dataset, opt Options) (*Result, error) { return SDCPlus(ds, opt), nil }),
	}
}

// Lookup finds a serving algorithm by case-insensitive name.
func Lookup(name string) (Algorithm, bool) {
	for _, a := range serving {
		if strings.EqualFold(a.Name(), name) {
			return a, true
		}
	}
	return nil, false
}

// MustLookup is Lookup that panics on an unknown name.
func MustLookup(name string) Algorithm {
	a, ok := Lookup(name)
	if !ok {
		panic(fmt.Sprintf("core: unknown algorithm %q", name))
	}
	return a
}

// AlgorithmNames returns the serving algorithms' names, sorted.
func AlgorithmNames() []string {
	names := make([]string, len(serving))
	for i, a := range serving {
		names[i] = a.Name()
	}
	return names
}
