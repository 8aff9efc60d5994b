package cluster

import (
	"fmt"
	"net/http"
	"reflect"
	"sort"
	"testing"

	"repro/internal/serve"
)

// TestDifferentialRankings sweeps the ranking additions — dp-idp
// top-k, skyline layers and the F-dominance restricted skyline —
// through coordinators over 1, 2 and 4 shards against a single node
// holding the union of all shard rows, before and after a batch
// mutation routed through the coordinator. dp-idp is checked
// rank-equal via an independently computed score oracle (ties make the
// row sequence itself shard-dependent); layers and restricted sets are
// value-determined, so those compare as multisets.
func TestDifferentialRankings(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		n := n
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			rows := fixtureRows(220, int64(3000+n))
			tc := newTestCluster(t, n, fixtureSpec("diff", rows))

			tc.sweepRankings("initial", rows)

			// Batch through the coordinator: drop part of the current
			// skyline, add fresh rows, mirror on the single-node union.
			full := tc.query(tc.co.URL, "diff", serve.QueryRequest{Explain: true})
			var batch serve.BatchRequest
			removed := make(map[string]int)
			for i, r := range full.Skyline {
				if i%3 != 0 {
					continue
				}
				batch.RemoveSharded = append(batch.RemoveSharded,
					serve.ShardRef{Shard: *r.Shard, Row: r.Row})
				removed[rowKey(&full.Skyline[i])]++
			}
			batch.Add = fixtureRows(30, int64(8000+n))
			tc.postJSON(tc.co.URL+"/tables/diff/rows:batch", batch, nil, http.StatusOK)

			var next []serve.RowSpec
			for _, r := range rows {
				k := fmt.Sprintf("%v|%v", r.TO, r.PO)
				if removed[k] > 0 {
					removed[k]--
					continue
				}
				next = append(next, r)
			}
			next = append(next, batch.Add...)
			tc.resetSingle(fixtureSpec("diff", next))

			tc.sweepRankings("post-batch", next)
		})
	}
}

// sweepRankings runs the three ranking variants against coordinator and
// single node and compares under each variant's own contract.
func (tc *testCluster) sweepRankings(phase string, union []serve.RowSpec) {
	tc.t.Helper()

	// dp-idp: rank-equal by independently recomputed scores — under the
	// table's own orders, and under per-request ones (the shard partials
	// must then be counted under the request's DAGs too).
	tc.sweepDPIDP(phase+"/dpidp", union, nil, ownPref)
	tc.sweepDPIDP(phase+"/dpidp-orders", union, queryOrders, queryPref)

	// Layers: membership is value-determined, so depth d is a multiset
	// equality; the depth-2 set must also nest inside depth-3.
	var layerKeys [][]string
	for _, depth := range []int{2, 3} {
		req := serve.QueryRequest{TopK: depth, Rank: "layer"}
		cluster := tc.query(tc.co.URL, "diff", req)
		single := tc.query(tc.single.URL, "diff", req)
		tc.checkSetEqual(fmt.Sprintf("%s/layer(depth=%d)", phase, depth), cluster, single)
		layerKeys = append(layerKeys, sortedKeys(cluster.Skyline))
	}
	if !isSubMultiset(layerKeys[0], layerKeys[1]) {
		tc.t.Errorf("%s/layer: depth-2 rows not contained in depth-3 rows", phase)
	}

	// Restricted skylines: multiset equality per weight vector, and
	// containment in the unrestricted skyline.
	fullKeys := sortedKeys(tc.query(tc.single.URL, "diff", serve.QueryRequest{Explain: true}).Skyline)
	for _, fw := range [][]float64{{0, 0}, {0.5, 0.25}, {0.9, 0.1}} {
		req := serve.QueryRequest{FWeights: fw}
		cluster := tc.query(tc.co.URL, "diff", req)
		single := tc.query(tc.single.URL, "diff", req)
		name := fmt.Sprintf("%s/restricted(%v)", phase, fw)
		tc.checkSetEqual(name, cluster, single)
		if !isSubMultiset(sortedKeys(cluster.Skyline), fullKeys) {
			tc.t.Errorf("%s: restricted rows not contained in the full skyline", name)
		}
	}
}

// sweepDPIDP checks one dp-idp top-k (and the /domcount partials behind
// it) on both tiers against scores recomputed under pref, the closure of
// orders (nil = the table's own).
func (tc *testCluster) sweepDPIDP(name string, union []serve.RowSpec, orders []serve.QueryOrder, pref prefOracle) {
	tc.t.Helper()
	scores := dpidpOracle(pref, union)
	const k = 7
	req := serve.QueryRequest{Orders: orders, TopK: k, Rank: "dpidp"}
	cluster := tc.query(tc.co.URL, "diff", req)
	single := tc.query(tc.single.URL, "diff", req)
	if len(cluster.Skyline) != len(single.Skyline) {
		tc.t.Errorf("%s: cluster %d rows, single %d", name, len(cluster.Skyline), len(single.Skyline))
		cluster.Skyline = nil // row counts differ: skip the per-rank comparison
	}
	for i := range cluster.Skyline {
		ck, sk := rowKey(&cluster.Skyline[i]), rowKey(&single.Skyline[i])
		cs, cok := scores[ck]
		ss, sok := scores[sk]
		if !cok || !sok {
			tc.t.Errorf("%s: rank %d row not a skyline member (cluster %q ok=%v, single %q ok=%v)",
				name, i, ck, cok, sk, sok)
			continue
		}
		if cs != ss {
			tc.t.Errorf("%s: rank %d dp-idp score %v (cluster) vs %v (single) — not rank-equal",
				name, i, cs, ss)
		}
		if i > 0 && scores[rowKey(&cluster.Skyline[i-1])] < cs {
			tc.t.Errorf("%s: cluster dp-idp order violated at %d", name, i)
		}
	}

	// /domcount through the coordinator answers what one node holding
	// every row answers, for count-shaped ("" = domcount) and
	// histogram-shaped (dpidp) partials alike.
	dreq := serve.DomCountRequest{Orders: orders}
	for _, r := range single.Skyline {
		dreq.Rows = append(dreq.Rows, serve.RowSpec{TO: r.TO, PO: r.PO})
	}
	for _, rank := range []string{"", "dpidp"} {
		dreq.Rank = rank
		var cl, si serve.DomCountResponse
		tc.postJSON(tc.co.URL+"/tables/diff/domcount", dreq, &cl, http.StatusOK)
		tc.postJSON(tc.single.URL+"/tables/diff/domcount", dreq, &si, http.StatusOK)
		if !reflect.DeepEqual(cl.Counts, si.Counts) || !reflect.DeepEqual(cl.Hists, si.Hists) {
			tc.t.Errorf("%s/domcount(rank=%q): cluster %+v %+v\n single %+v %+v",
				name, rank, cl.Counts, cl.Hists, si.Counts, si.Hists)
		}
	}
}

// isSubMultiset reports whether sorted key list a ⊆ b with multiplicity.
func isSubMultiset(a, b []string) bool {
	i := 0
	for _, k := range a {
		for i < len(b) && b[i] < k {
			i++
		}
		if i == len(b) || b[i] != k {
			return false
		}
		i++
	}
	return true
}

// dpidpOracle recomputes the dp-idp score of every union skyline row
// from first principles: each union row dominated by exactly k skyline
// members contributes 1/k to each, summed ascending in k exactly as
// the serving path materializes histograms. Keyed by row values —
// duplicate members share a score.
func dpidpOracle(pref prefOracle, union []serve.RowSpec) map[string]float64 {
	key := func(r *serve.RowSpec) string { return fmt.Sprintf("%v|%v", r.TO, r.PO) }
	var sky []int
	for i := range union {
		dominated := false
		for j := range union {
			if dominatesOracle(pref, union[j].TO, union[j].PO, union[i].TO, union[i].PO) {
				dominated = true
				break
			}
		}
		if !dominated {
			sky = append(sky, i)
		}
	}
	hists := make([]map[int]int, len(sky))
	for r := range union {
		var dom []int
		for s, i := range sky {
			if dominatesOracle(pref, union[i].TO, union[i].PO, union[r].TO, union[r].PO) {
				dom = append(dom, s)
			}
		}
		for _, s := range dom {
			if hists[s] == nil {
				hists[s] = map[int]int{}
			}
			hists[s][len(dom)]++
		}
	}
	scores := make(map[string]float64, len(sky))
	for s, i := range sky {
		ks := make([]int, 0, len(hists[s]))
		for k := range hists[s] {
			ks = append(ks, k)
		}
		sort.Ints(ks)
		var sum float64
		for _, k := range ks {
			sum += float64(hists[s][k]) / float64(k)
		}
		scores[key(&union[i])] = sum
	}
	return scores
}
