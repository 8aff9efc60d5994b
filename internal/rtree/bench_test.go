package rtree

import (
	"math/rand"
	"testing"
)

func benchPoints(n, dims int) []Point {
	rng := rand.New(rand.NewSource(7))
	return randomPoints(rng, n, dims, 10_000)
}

func BenchmarkBulkLoad(b *testing.B) {
	for _, n := range []int{1_000, 50_000} {
		pts := benchPoints(n, 3)
		b.Run(benchName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = BulkLoad(3, append([]Point(nil), pts...), 128, nil)
			}
		})
	}
}

func BenchmarkInsert(b *testing.B) {
	pts := benchPoints(10_000, 3)
	b.ResetTimer()
	tr := New(3, 16, nil)
	for i := 0; i < b.N; i++ {
		tr.Insert(pts[i%len(pts)])
		if tr.Len() == len(pts) { // rebuild to keep tree size bounded
			b.StopTimer()
			tr = New(3, 16, nil)
			b.StartTimer()
		}
	}
}

func BenchmarkRangeNonEmpty(b *testing.B) {
	tr := BulkLoad(3, benchPoints(50_000, 3), 128, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := int32(i % 9_000)
		lo := []int32{base, base, 0}
		hi := []int32{base + 500, base + 500, 10_000}
		_ = tr.RangeNonEmpty(lo, hi)
	}
}

func BenchmarkSearchRange(b *testing.B) {
	tr := BulkLoad(3, benchPoints(50_000, 3), 128, nil)
	b.ResetTimer()
	count := 0
	for i := 0; i < b.N; i++ {
		base := int32(i % 9_000)
		lo := []int32{base, base, 0}
		hi := []int32{base + 500, base + 500, 10_000}
		tr.SearchRange(lo, hi, func(Entry) bool { count++; return true })
	}
	_ = count
}

func BenchmarkBufferedTraversal(b *testing.B) {
	tr := BulkLoad(3, benchPoints(50_000, 3), 128, nil)
	b.Run("unbuffered", func(b *testing.B) {
		rd := tr.NewReader(&IOCounter{}, nil)
		for i := 0; i < b.N; i++ {
			walk(rd)
		}
	})
	b.Run("buffered", func(b *testing.B) {
		rd := tr.NewReader(&IOCounter{}, NewBuffer(tr.NodeCount()))
		for i := 0; i < b.N; i++ {
			walk(rd)
		}
	})
}

func benchName(n int) string {
	if n >= 50_000 {
		return "50k"
	}
	return "1k"
}
