package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Capabilities declares what a registered algorithm can handle, so
// executors and front-ends can dispatch without per-algorithm switches.
type Capabilities struct {
	// POCapable algorithms handle partially ordered attributes; the
	// others (the classic sort-based TO baselines) reject any dataset
	// with PO attributes through Run's error.
	POCapable bool
	// Progressive algorithms emit skyline points while the run is still
	// in flight (their Emissions carry meaningful timestamps); blocking
	// ones output everything at the end.
	Progressive bool
	// UsesDyadic marks algorithms whose dominance checks lazily build
	// the PO domains' dyadic interval index (unless Options.NoDyadic).
	// Parallel executors pre-build the index for such algorithms before
	// starting workers, keeping the domains read-only inside the pool —
	// an algorithm that builds it lazily without setting this flag is
	// not safe to shard.
	UsesDyadic bool
	// PaperRef cites where the algorithm is described relative to the
	// reproduced paper (its own sections or the surveyed related work).
	PaperRef string
}

// Algorithm is the uniform plug-in interface every skyline algorithm is
// registered behind. Run computes the skyline of ds under opt; TO-only
// algorithms return an error when ds has PO attributes.
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

// NewAlgorithm wraps a function as a registrable Algorithm.
func NewAlgorithm(name string, caps Capabilities, run func(ds *Dataset, opt Options) (*Result, error)) Algorithm {
	return &funcAlgorithm{name: name, caps: caps, run: run}
}

var registry = struct {
	mu     sync.RWMutex
	byName map[string]Algorithm
}{byName: make(map[string]Algorithm)}

// Register adds an algorithm under its (case-insensitive) name.
// Panics on an empty or duplicate name — registration is a programming
// error, not a runtime condition.
func Register(a Algorithm) {
	key := canonicalName(a.Name())
	if key == "" {
		panic("core: Register with empty algorithm name")
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if _, dup := registry.byName[key]; dup {
		panic(fmt.Sprintf("core: algorithm %q registered twice", a.Name()))
	}
	registry.byName[key] = a
}

// Lookup finds a registered algorithm by case-insensitive name.
func Lookup(name string) (Algorithm, bool) {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	a, ok := registry.byName[canonicalName(name)]
	return a, ok
}

// MustLookup is Lookup that panics on an unknown name.
func MustLookup(name string) Algorithm {
	a, ok := Lookup(name)
	if !ok {
		panic(fmt.Sprintf("core: unknown algorithm %q", name))
	}
	return a
}

// Algorithms returns all registered algorithms sorted by name.
func Algorithms() []Algorithm {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	out := make([]Algorithm, 0, len(registry.byName))
	for _, a := range registry.byName {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// AlgorithmNames returns the registered names, sorted.
func AlgorithmNames() []string {
	algos := Algorithms()
	names := make([]string, len(algos))
	for i, a := range algos {
		names[i] = a.Name()
	}
	return names
}

// canonicalName lower-cases names so lookups accept "sTSS", "STSS", …
func canonicalName(name string) string {
	return strings.ToLower(name)
}

// The built-in zoo: the paper's contribution plus every baseline it is
// evaluated against, all behind the one interface.
func init() {
	Register(NewAlgorithm("stss",
		Capabilities{POCapable: true, Progressive: true, UsesDyadic: true, PaperRef: "§IV (this paper)"},
		func(ds *Dataset, opt Options) (*Result, error) { return STSS(ds, opt), nil }))
	Register(NewAlgorithm("bbs+",
		Capabilities{POCapable: true, PaperRef: "§II-C (Chan et al.)"},
		func(ds *Dataset, opt Options) (*Result, error) { return BBSPlus(ds, opt), nil }))
	Register(NewAlgorithm("sdc",
		Capabilities{POCapable: true, Progressive: true, PaperRef: "§II-C (Chan et al.)"},
		func(ds *Dataset, opt Options) (*Result, error) { return SDC(ds, opt), nil }))
	Register(NewAlgorithm("sdc+",
		Capabilities{POCapable: true, Progressive: true, PaperRef: "§II-C (Chan et al.)"},
		func(ds *Dataset, opt Options) (*Result, error) { return SDCPlus(ds, opt), nil }))
	Register(NewAlgorithm("bnl",
		Capabilities{POCapable: true, PaperRef: "§II-A (Börzsönyi et al.)"},
		func(ds *Dataset, opt Options) (*Result, error) { return BNL(ds, opt), nil }))
	Register(NewAlgorithm("sfs",
		Capabilities{POCapable: true, Progressive: true, PaperRef: "§II-A (Chomicki et al.)"},
		func(ds *Dataset, opt Options) (*Result, error) { return SFS(ds, opt), nil }))
	Register(NewAlgorithm("less",
		Capabilities{Progressive: true, PaperRef: "§II-A (Godfrey et al.)"},
		LESS))
}
