package core

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/poset"
)

// This file implements the §V-B extensions of dTSS: cross-group
// precedence under the query's partial orders, and caching of past
// query results keyed by a canonical signature of those orders (cf.
// Sacharidis et al., SSDBM 2008). Fully dynamic queries, which also
// give ideal values for the TO attributes, redefine TO dominance on
// distances |t − q| to the query point q; a planned query with
// plan.Query.Ideal set runs that transform.

// groupOrder returns group indexes sorted by ascending sum of
// topological ordinals under the query domains (dTSS's cross-group
// precedence order).
func (db *DynamicDB) groupOrder(domains []*poset.Domain) []int {
	order := make([]int, len(db.groups))
	keys := make([]int64, len(db.groups))
	for gi := range db.groups {
		order[gi] = gi
		var s int64
		for d, v := range db.groups[gi].vals {
			s += int64(domains[d].Ord(v))
		}
		keys[gi] = s
	}
	sort.Slice(order, func(a, b int) bool {
		if keys[order[a]] != keys[order[b]] {
			return keys[order[a]] < keys[order[b]]
		}
		return order[a] < order[b]
	})
	return order
}

// --- query result cache ------------------------------------------------------

// queryCache memoises dynamic skyline results keyed by the canonical
// signature of the query's partial orders, with FIFO eviction. All
// accesses go through the mutex: QueryTSS may be called from many
// goroutines sharing one DynamicDB.
type queryCache struct {
	mu       sync.Mutex
	capacity int
	results  map[string][]int32
	fifo     []string
	hits     int64
	misses   int64
}

// EnableCache makes QueryTSS memoise up to capacity past results (§V-B:
// "caching of past results can help reduce the processing cost of
// dynamic queries"). A cache hit serves the stored skyline with zero
// page IOs; its metrics reflect only the signature computation.
//
// Call before the database is shared across goroutines: enabling the
// cache swaps an unguarded pointer, while the cache itself is safe for
// concurrent queries once installed.
func (db *DynamicDB) EnableCache(capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	db.cache = &queryCache{capacity: capacity, results: make(map[string][]int32, capacity)}
}

// CacheStats returns (hits, misses) since EnableCache; zeros when the
// cache is disabled.
func (db *DynamicDB) CacheStats() (hits, misses int64) {
	if db.cache == nil {
		return 0, 0
	}
	db.cache.mu.Lock()
	defer db.cache.mu.Unlock()
	return db.cache.hits, db.cache.misses
}

// QuerySignature serialises the query's preference DAGs canonically: value
// count plus the sorted edge list per domain. Two queries with the same
// preferences — however their Orders were constructed — share a
// signature.
func QuerySignature(domains []*poset.Domain) string {
	var sb strings.Builder
	for _, dm := range domains {
		dag := dm.DAG()
		sb.WriteString(strconv.Itoa(dag.N()))
		sb.WriteByte(';')
		for v := 0; v < dag.N(); v++ {
			for _, w := range dag.Out(v) {
				sb.WriteString(strconv.Itoa(v))
				sb.WriteByte('>')
				sb.WriteString(strconv.Itoa(int(w)))
				sb.WriteByte(',')
			}
		}
		sb.WriteByte('|')
	}
	return sb.String()
}

func (c *queryCache) get(sig string) ([]int32, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids, ok := c.results[sig]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return ids, ok
}

func (c *queryCache) put(sig string, ids []int32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.results[sig]; exists {
		return
	}
	if len(c.fifo) >= c.capacity {
		old := c.fifo[0]
		c.fifo = c.fifo[1:]
		delete(c.results, old)
	}
	c.fifo = append(c.fifo, sig)
	c.results[sig] = ids
}

// lookupCache consults the cache inside QueryTSS; returns a served
// result on hit.
func (db *DynamicDB) lookupCache(domains []*poset.Domain) (*Result, string) {
	if db.cache == nil {
		return nil, ""
	}
	start := time.Now()
	sig := QuerySignature(domains)
	if ids, ok := db.cache.get(sig); ok {
		res := &Result{SkylineIDs: append([]int32(nil), ids...), FromCache: true}
		res.Metrics.CPU = time.Since(start)
		return res, sig
	}
	return nil, sig
}

func (db *DynamicDB) storeCache(sig string, res *Result) {
	// res is nil when the query erred or was canceled mid-run — there is
	// no (complete) skyline to memoise.
	if db.cache == nil || sig == "" || res == nil {
		return
	}
	db.cache.put(sig, append([]int32(nil), res.SkylineIDs...))
}
