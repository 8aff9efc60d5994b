package cluster

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/poset"
	"repro/internal/serve"
)

// mergeScenario is one streamed scatter without HTTP: per-shard local
// skylines in stream order, the shards' static bounds, and one
// interleaving of their rows and trailers.
type mergeScenario struct {
	doms    []*poset.Domain
	nTO     int
	bounds  []shardBound
	streams [][]mergeRow // per shard, in stream order
	events  []mergeEvent
}

type mergeRow struct {
	pt  core.Point // ID: the row's index among its shard's raw rows
	key *int64     // L1 mindist key on keyed legs; nil on replayed ones
}

// mergeEvent is the next row of shard's stream, or its trailer.
type mergeEvent struct {
	shard   int
	trailer bool
}

// fuzzBytes reads fuzz input one byte at a time, 0 once exhausted.
type fuzzBytes []byte

func (b *fuzzBytes) next(n int) int {
	if n <= 1 || len(*b) == 0 {
		return 0
	}
	v := int((*b)[0])
	*b = (*b)[1:]
	return v % n
}

// scenarioFromBytes builds a small scenario with heavy ties and
// duplicates: 1–4 shards, 0–2 TO and 0–2 PO dimensions, keyed legs in
// non-decreasing key order and replayed legs in arbitrary order, corners
// known, unknown or empty.
func scenarioFromBytes(data []byte) *mergeScenario {
	b := fuzzBytes(data)
	nShards := 1 + b.next(4)
	sc := &mergeScenario{nTO: b.next(3)}
	nPO := b.next(3)
	if sc.nTO+nPO == 0 {
		sc.nTO = 1
	}
	for d := 0; d < nPO; d++ {
		size := 2 + b.next(5)
		dag := poset.NewDAG(size)
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				if b.next(3) == 0 {
					dag.MustEdge(i, j)
				}
			}
		}
		sc.doms = append(sc.doms, poset.MustDomain(dag))
	}
	sc.bounds = make([]shardBound, nShards)
	sc.streams = make([][]mergeRow, nShards)
	for s := 0; s < nShards; s++ {
		pts := make([]core.Point, b.next(12))
		for i := range pts {
			pts[i] = core.Point{ID: int32(i), TO: make([]int32, sc.nTO), PO: make([]int32, nPO)}
			for d := range pts[i].TO {
				pts[i].TO[d] = int32(b.next(5))
			}
			for d := range pts[i].PO {
				pts[i].PO[d] = int32(b.next(sc.doms[d].Size()))
			}
		}
		switch {
		case len(pts) == 0:
			sc.bounds[s].empty = true
		case b.next(4) != 0:
			corner := make([]int64, sc.nTO)
			for d := range corner {
				corner[d] = int64(pts[0].TO[d])
				for i := range pts {
					corner[d] = min(corner[d], int64(pts[i].TO[d]))
				}
			}
			sc.bounds[s].corner = corner
		}
		keyed := b.next(2) == 1
		for _, id := range core.NaiveSkylineUnder(sc.doms, pts) {
			r := mergeRow{pt: pts[id]}
			if keyed {
				k := int64(0)
				for _, v := range r.pt.TO {
					k += int64(v)
				}
				for d, v := range r.pt.PO {
					k += int64(sc.doms[d].Ord(v))
				}
				r.key = &k
			}
			sc.streams[s] = append(sc.streams[s], r)
		}
		if keyed {
			sort.SliceStable(sc.streams[s], func(i, j int) bool { return *sc.streams[s][i].key < *sc.streams[s][j].key })
		} else if b.next(2) == 1 {
			slices.Reverse(sc.streams[s])
		}
	}
	// Interleave: each shard's rows in stream order, then its trailer.
	left := make([]int, nShards)
	var open []int
	for s := range sc.streams {
		left[s] = len(sc.streams[s]) + 1
		open = append(open, s)
	}
	for len(open) > 0 {
		k := b.next(len(open))
		s := open[k]
		left[s]--
		sc.events = append(sc.events, mergeEvent{shard: s, trailer: left[s] == 0})
		if left[s] == 0 {
			open = append(open[:k], open[k+1:]...)
		}
	}
	return sc
}

// certifiedRow is one emission: shard, raw row index and stream index.
type certifiedRow struct{ shard, row, index int }

// runMerger drives a merger through the scenario the way streamMerge
// does and returns its emissions. It fails t if an arrival dominates a
// row certified before it.
func runMerger(t *testing.T, sc *mergeScenario, topK int) []certifiedRow {
	t.Helper()
	var out []certifiedRow
	var certified []core.Point
	m := newMerger(sc.doms, sc.nTO, sc.bounds, topK, func(c *candidate, index int) error {
		out = append(out, certifiedRow{c.shard, c.row.Row, index})
		certified = append(certified, c.pt)
		return nil
	})
	defer m.win.Close()
	next := make([]int, len(sc.streams))
	for _, ev := range sc.events {
		var done bool
		var err error
		if ev.trailer {
			done, err = m.trailer(ev.shard)
		} else {
			r := sc.streams[ev.shard][next[ev.shard]]
			next[ev.shard]++
			for i := range certified {
				if core.DominatesUnder(sc.doms, &r.pt, &certified[i]) {
					t.Fatalf("shard %d row %d arrived after certified %+v and dominates it", ev.shard, r.pt.ID, out[i])
				}
			}
			c := candidate{shard: ev.shard, row: serve.SkylineRow{Row: int(r.pt.ID)}, pt: r.pt}
			done, err = m.row(c, r.key)
		}
		if err != nil {
			t.Fatal(err)
		}
		if done {
			return out
		}
	}
	if _, err := m.sweep(); err != nil {
		t.Fatal(err)
	}
	return out
}

// referenceMerge is the scalar merge the kernel window and the
// certification frontier replaced: every arrival is tested against
// every alive candidate, and every admitted row and every trailer is
// followed by a sweep over all pending candidates. Dominated arrivals
// skip the sweep.
func referenceMerge(sc *mergeScenario, topK int) []certifiedRow {
	type mcand struct {
		shard     int
		pt        core.Point
		key       *int64
		certified bool
	}
	n := len(sc.streams)
	complete := make([]bool, n)
	lastKey := make([]int64, n)
	haveKey := make([]bool, n)
	var alive []mcand
	var out []certifiedRow
	sweep := func() bool {
		for i := range alive {
			p := &alive[i]
			if p.certified {
				continue
			}
			threatened := false
			for s := 0; s < n && !threatened; s++ {
				if s == p.shard || complete[s] {
					continue
				}
				if p.key != nil && haveKey[s] && lastKey[s] >= *p.key {
					continue
				}
				threatened = sc.bounds[s].threatens(&p.pt)
			}
			if threatened {
				continue
			}
			p.certified = true
			out = append(out, certifiedRow{p.shard, int(p.pt.ID), len(out)})
			if topK > 0 && len(out) == topK {
				return true
			}
		}
		return false
	}
	next := make([]int, n)
	for _, ev := range sc.events {
		if ev.trailer {
			complete[ev.shard] = true
		} else {
			r := sc.streams[ev.shard][next[ev.shard]]
			next[ev.shard]++
			if r.key != nil {
				lastKey[ev.shard], haveKey[ev.shard] = *r.key, true
			}
			dominated := false
			for i := range alive {
				if core.DominatesUnder(sc.doms, &alive[i].pt, &r.pt) {
					dominated = true
					break
				}
			}
			if dominated {
				continue
			}
			kept := alive[:0]
			for i := range alive {
				if !alive[i].certified && core.DominatesUnder(sc.doms, &r.pt, &alive[i].pt) {
					continue
				}
				kept = append(kept, alive[i])
			}
			alive = append(kept, mcand{shard: ev.shard, pt: r.pt, key: r.key})
		}
		if sweep() {
			return out
		}
	}
	sweep()
	return out
}

// FuzzStreamMerge: over random per-shard local skylines and random
// interleavings, the merger certifies exactly eliminate(all streamed
// rows), in the scalar reference's order and indexes; no later arrival
// dominates a certified row; and a streamed top-K is the first K rows
// of the full stream.
func FuzzStreamMerge(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 2, 2, 11, 1, 0, 3, 4, 1, 2, 3, 4, 0, 1, 2, 9, 1, 3, 0, 2, 1, 1, 4, 0, 3, 2, 1, 0, 4, 4}, uint8(3))
	f.Add([]byte{3, 1, 1, 4, 0, 1, 0, 2, 10, 2, 3, 1, 0, 4, 1, 3, 2, 0, 1, 11, 0, 1, 2, 3, 4, 0, 1, 2, 3, 1, 0}, uint8(0))
	f.Add([]byte{2, 2, 0, 11, 4, 0, 4, 1, 3, 2, 2, 1, 0, 0, 1, 1, 11, 3, 0, 1, 4, 2, 2, 0, 3, 1, 0, 0, 2, 1, 1}, uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, k uint8) {
		sc := scenarioFromBytes(data)
		full := runMerger(t, sc, 0)
		if ref := referenceMerge(sc, 0); !slices.Equal(full, ref) {
			t.Fatalf("emissions %v, scalar reference %v", full, ref)
		}
		var all []candidate
		for s, rows := range sc.streams {
			for _, r := range rows {
				all = append(all, candidate{shard: s, row: serve.SkylineRow{Row: int(r.pt.ID)}, pt: r.pt})
			}
		}
		var want, got []string
		for _, c := range eliminate(all, sc.doms) {
			want = append(want, fmt.Sprintf("%d/%d", c.shard, c.row.Row))
		}
		for _, r := range full {
			got = append(got, fmt.Sprintf("%d/%d", r.shard, r.row))
		}
		slices.Sort(want)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("certified %v, eliminate(all) %v", got, want)
		}

		topK := int(k%8) + 1
		first := runMerger(t, sc, topK)
		if ref := referenceMerge(sc, topK); !slices.Equal(first, ref) {
			t.Fatalf("top-%d emissions %v, scalar reference %v", topK, first, ref)
		}
		if wantK := full[:min(topK, len(full))]; !slices.Equal(first, wantK) {
			t.Fatalf("top-%d streamed %v, first rows of the full stream %v", topK, first, wantK)
		}
	})
}
