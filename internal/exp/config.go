// Package exp is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (§VI) — Figures 7–14 plus the
// parameter grid of Table III — and adds ablation experiments for the
// optimisations of §IV-B and §V-B. Everything it reports is in the
// paper's simulated page-I/O cost model; wall-clock measurement of the
// serving system lives in bench/.
//
// The harness is scale-aware: every figure accepts a scale factor
// multiplying the paper's data cardinalities, so the full parameter
// sweeps run on a laptop in minutes at scale≈0.02 and reproduce the
// paper's exact setup at scale 1.
package exp

import (
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/poset"
)

// Config carries one experiment's parameters (Table III).
type Config struct {
	N      int               // data cardinality
	TO     int               // number of totally ordered attributes
	PO     int               // number of partially ordered attributes
	H      int               // DAG height (lattice universe size)
	D      float64           // DAG density (node retention probability)
	Dist   data.Distribution // Independent or Anti-correlated
	Seed   int64
	IOCost time.Duration // simulated cost per page access
	// Queries is how many random dynamic queries to average over.
	Queries int
	// TODomain is the size of each totally ordered domain.
	TODomain int
}

// Paper defaults (§VI-B, §VI-C). The static experiments default to
// N=1M, |TO|=2, |PO|=2, h=8, d=0.8; the dynamic ones to N=1M, |TO|=3,
// |PO|=1, h=6, d=0.8. Each TO domain has 10000 values; an IO costs 5ms.
const (
	DefaultStaticN  = 1_000_000
	DefaultDynamicN = 1_000_000
	DefaultTODomain = 10_000
)

// StaticDefaults returns the paper's default static configuration at
// the given scale.
func StaticDefaults(scale float64) Config {
	return Config{
		N:        scaled(DefaultStaticN, scale),
		TO:       2,
		PO:       2,
		H:        8,
		D:        0.8,
		Dist:     data.Independent,
		Seed:     1,
		IOCost:   core.DefaultIOCost,
		Queries:  3,
		TODomain: DefaultTODomain,
	}
}

// DynamicDefaults returns the paper's default dynamic configuration at
// the given scale.
func DynamicDefaults(scale float64) Config {
	c := StaticDefaults(scale)
	c.N = scaled(DefaultDynamicN, scale)
	c.TO = 3
	c.PO = 1
	c.H = 6
	return c
}

func scaled(n int, scale float64) int {
	if scale <= 0 {
		scale = 1
	}
	s := int(float64(n) * scale)
	if s < 100 {
		s = 100
	}
	return s
}

// BuildDomains generates the PO domains: one thinned containment
// lattice per PO attribute.
func BuildDomains(cfg Config) []*poset.Domain {
	rng := rand.New(rand.NewSource(cfg.Seed*7919 + 13))
	domains := make([]*poset.Domain, cfg.PO)
	for d := 0; d < cfg.PO; d++ {
		domains[d] = poset.MustDomain(data.Lattice(rng, cfg.H, cfg.D))
	}
	return domains
}

// BuildDataset generates the synthetic dataset of one experiment.
func BuildDataset(cfg Config) *core.Dataset {
	domains := BuildDomains(cfg)
	rng := rand.New(rand.NewSource(cfg.Seed))
	to := data.GenTO(rng, cfg.N, cfg.TO, cfg.TODomain, cfg.Dist)
	sizes := make([]int, cfg.PO)
	for d := range domains {
		sizes[d] = domains[d].Size()
	}
	po := data.GenPO(rng, cfg.N, sizes)
	ds := &core.Dataset{Domains: domains}
	ds.Pts = make([]core.Point, cfg.N)
	for i := 0; i < cfg.N; i++ {
		ds.Pts[i] = core.Point{ID: int32(i), TO: to[i]}
		if cfg.PO > 0 {
			ds.Pts[i].PO = po[i]
		}
	}
	return ds
}

// QueryDomains generates the q-th random dynamic-query partial orders
// for a dataset: one random order per PO attribute over the same value
// sets, with a modest average out-degree.
func QueryDomains(cfg Config, ds *core.Dataset, q int) []*poset.Domain {
	rng := rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(q)*97 + 7))
	domains := make([]*poset.Domain, len(ds.Domains))
	for d := range ds.Domains {
		n := ds.Domains[d].Size()
		domains[d] = poset.MustDomain(data.RandomOrderAvgDegree(rng, n, 2))
	}
	return domains
}
