package poset

import (
	"math/rand"
	"testing"
)

// FuzzMergeIntervals: the merge must always produce a normalised set
// covering exactly the input positions, for arbitrary byte-derived
// interval collections. Runs its seed corpus under `go test`; explore
// further with `go test -fuzz=FuzzMergeIntervals ./internal/poset`.
func FuzzMergeIntervals(f *testing.F) {
	f.Add([]byte{1, 3, 2, 5, 9, 9})
	f.Add([]byte{0, 0})
	f.Add([]byte{255, 1, 7, 7, 3, 4, 4, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		var ivs []Interval
		covered := map[int32]bool{}
		for i := 0; i+1 < len(data); i += 2 {
			lo := int32(data[i])
			hi := lo + int32(data[i+1]%16)
			ivs = append(ivs, Interval{lo, hi})
			for p := lo; p <= hi; p++ {
				covered[p] = true
			}
		}
		got := MergeIntervals(ivs)
		for i := 1; i < len(got); i++ {
			if got[i].Lo <= got[i-1].Hi+1 {
				t.Fatalf("not normalised: %v", got)
			}
		}
		var total int64
		for _, iv := range got {
			for p := iv.Lo; p <= iv.Hi; p++ {
				if !covered[p] {
					t.Fatalf("position %d not in input", p)
				}
			}
			total += int64(iv.Len())
		}
		if total != int64(len(covered)) {
			t.Fatalf("covered %d positions, want %d", total, len(covered))
		}
	})
}

// FuzzClosureAgreement: enabling the transitive-closure bitset must
// never change a single TPrefers answer — the closure fast path, the
// interval stabbing form and raw DAG reachability agree on every pair —
// and a budget smaller than the closure refuses cleanly, leaving the
// interval path in place.
func FuzzClosureAgreement(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 0, 3, 3, 4})
	f.Add([]byte{})
	f.Add([]byte{0, 7, 1, 6, 2, 5, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 8
		dag := NewDAG(n)
		for i := 0; i+1 < len(data) && i < 40; i += 2 {
			a, b := int(data[i]%n), int(data[i+1]%n)
			if a == b {
				continue
			}
			if a > b {
				a, b = b, a // forward edges only: always acyclic
			}
			dag.MustEdge(a, b)
		}
		dm := MustDomain(dag)

		var before [n][n]bool
		for x := int32(0); x < n; x++ {
			for y := int32(0); y < n; y++ {
				if x != y {
					before[x][y] = dm.TPrefers(x, y)
				}
			}
		}

		// The 8-value closure needs 64 bytes; a 1-byte budget must refuse
		// and leave the interval path untouched.
		if dm.EnableClosure(1) {
			t.Fatal("EnableClosure(1) accepted a closure larger than its budget")
		}
		if dm.Closure() != nil || dm.ClosureTranspose() != nil {
			t.Fatal("refused closure left state behind")
		}
		if !dm.EnableClosure(0) {
			t.Fatal("EnableClosure(default) refused an 8-value domain")
		}
		if !dm.EnableClosure(1) {
			t.Fatal("EnableClosure is not sticky once the closure is built")
		}

		r := NewReachability(dag)
		for x := int32(0); x < n; x++ {
			for y := int32(0); y < n; y++ {
				if x == y {
					continue
				}
				got := dm.TPrefers(x, y)
				if got != before[x][y] {
					t.Fatalf("TPrefers(%d,%d) changed when the closure was enabled", x, y)
				}
				if got != r.Reaches(x, y) {
					t.Fatalf("closure TPrefers(%d,%d) diverges from reachability", x, y)
				}
				if got != dm.Closure().Reaches(x, y) {
					t.Fatalf("published closure row diverges on (%d,%d)", x, y)
				}
			}
		}
	})
}

// FuzzDomainConstruction: arbitrary edge lists either fail cleanly
// (cycle) or produce a domain whose t-preference matches reachability.
func FuzzDomainConstruction(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 0, 2})
	f.Add([]byte{1, 0, 0, 1}) // cycle
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 8
		dag := NewDAG(n)
		for i := 0; i+1 < len(data) && i < 40; i += 2 {
			a, b := int(data[i]%n), int(data[i+1]%n)
			if a != b {
				dag.MustEdge(a, b)
			}
		}
		dm, err := NewDomain(dag)
		if err != nil {
			return // cyclic input: a clean failure is correct
		}
		r := NewReachability(dag)
		rng := rand.New(rand.NewSource(int64(len(data))))
		for trial := 0; trial < 16; trial++ {
			x, y := int32(rng.Intn(n)), int32(rng.Intn(n))
			if x == y {
				continue
			}
			if dm.TPrefers(x, y) != r.Reaches(x, y) {
				t.Fatalf("TPrefers(%d,%d) diverges from reachability", x, y)
			}
		}
	})
}
