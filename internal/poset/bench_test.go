package poset

import (
	"math/rand"
	"testing"
)

// Micro-benchmarks for the domain substrate: these operations sit on
// the inner loops of every skyline algorithm (t-preference per
// dominance check) and on the dynamic-query critical path (full domain
// construction per query).

func benchRandomDomain(b *testing.B, n int, p float64) *Domain {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	return MustDomain(randomDAG(rng, n, p))
}

func BenchmarkNewDomain(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{64, 256, 1024} {
		dag := randomDAG(rng, n, 0.05)
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := NewDomain(dag); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTPrefersStab(b *testing.B) {
	dm := benchRandomDomain(b, 512, 0.05)
	n := dm.Size()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Reduce modulo in int before converting: b.N can exceed what
		// int32 multiplication tolerates.
		_ = dm.TPrefers(int32(i%n), int32((i%n*31)%n))
	}
}

func BenchmarkTPrefersContainment(b *testing.B) {
	dm := benchRandomDomain(b, 512, 0.05)
	n := dm.Size()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = dm.TPrefersContainment(int32(i%n), int32((i%n*31)%n))
	}
}

func BenchmarkOrdRange(b *testing.B) {
	direct := benchRandomDomain(b, 512, 0.05)
	dyadic := benchRandomDomain(b, 512, 0.05)
	dyadic.EnableDyadic()
	n := int32(512)
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lo := int32(i) % (n / 2)
			_ = direct.OrdRangeIntervals(lo, lo+n/4)
		}
	})
	b.Run("dyadic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lo := int32(i) % (n / 2)
			_ = dyadic.OrdRangeIntervals(lo, lo+n/4)
		}
	})
}

func BenchmarkReachabilityBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	dag := randomDAG(rng, 512, 0.05)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = NewReachability(dag)
	}
}

func sizeName(n int) string {
	switch {
	case n >= 1024:
		return "1k"
	case n >= 256:
		return "256"
	default:
		return "64"
	}
}
