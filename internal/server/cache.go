package server

import (
	"container/list"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// wQuantum is the cache-key grid for seed vectors: each component is
// rounded to the nearest multiple before keying, so seeds differing by
// floating-point noise (clients re-normalising the same weights) share a
// cache line. 1e-4 is far below any rho resolution the operators report,
// and two seeds within the same grid cell are within ~1e-4*sqrt(d) of each
// other — visually identical preferences.
const wQuantum = 1e-4

// cacheKey identifies a query result: operator, dataset generation,
// quantized seed, k and m.
func cacheKey(op, dataset string, gen uint64, w []float64, k, m int) string {
	var b strings.Builder
	b.WriteString(op)
	b.WriteByte('|')
	b.WriteString(dataset)
	b.WriteByte('#')
	b.WriteString(strconv.FormatUint(gen, 10))
	b.WriteString("|k=")
	b.WriteString(strconv.Itoa(k))
	b.WriteString("|m=")
	b.WriteString(strconv.Itoa(m))
	b.WriteString("|w=")
	for i, x := range w {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatFloat(math.Round(x/wQuantum)*wQuantum, 'g', -1, 64))
	}
	return b.String()
}

// lruCache is a thread-safe LRU of marshaled response bodies. Bodies are
// cached verbatim, so a hit returns a byte-identical response.
type lruCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List
	items map[string]*list.Element

	hits   atomic.Int64
	misses atomic.Int64
}

type cacheEntry struct {
	key  string
	body []byte
	// Invalidation metadata: the dataset the result was computed over and
	// the query's k. A point mutation with at least k plain dominators
	// cannot change any rho-skyband (or top-k region) with parameter k —
	// each dominator inherits every rho-dominance relation the mutated
	// point participates in — so entries with k <= that dominator count
	// survive the mutation verbatim.
	dataset string
	k       int
}

// newLRUCache returns a cache holding up to capacity entries; capacity <= 0
// disables caching (every lookup misses, Put is a no-op).
func newLRUCache(capacity int) *lruCache {
	return &lruCache{cap: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

func (c *lruCache) Get(key string) ([]byte, bool) {
	if c.cap <= 0 {
		c.misses.Add(1)
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits.Add(1)
	return el.Value.(*cacheEntry).body, true
}

func (c *lruCache) Put(key string, body []byte, dataset string, k int) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).body = body
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, body: body, dataset: dataset, k: k})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}

// DropAbove removes every entry computed over the named dataset whose k
// exceeds keepK, returning how many were dropped. It implements fine-grained
// mutation invalidation: keepK is the mutated point's plain-dominator count
// (the minimum over the old and new incarnation for an update), and entries
// with k <= keepK are provably unaffected. keepK < 0 drops the dataset's
// entries wholesale.
func (c *lruCache) DropAbove(dataset string, keepK int) int {
	if c.cap <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for el := c.ll.Front(); el != nil; { //ordlint:allow ctxflow — bounded by the cache capacity (hundreds of entries), never long enough to need cancellation
		next := el.Next()
		e := el.Value.(*cacheEntry)
		if e.dataset == dataset && e.k > keepK {
			c.ll.Remove(el)
			delete(c.items, e.key)
			dropped++
		}
		el = next
	}
	return dropped
}

func (c *lruCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns cumulative hit/miss counts.
func (c *lruCache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}
