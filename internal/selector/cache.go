package selector

import (
	"container/list"
	"sync"
	"sync/atomic"

	"adaptiveqos/internal/metrics"
)

// Cache is a concurrency-safe compiled-selector cache: a sharded LRU
// keyed by selector source text.  Every message on the wire carries its
// selector as text and every receiver must evaluate it, so without a
// cache each delivered message pays a full lex+parse.  Sessions reuse a
// small working set of distinct selectors (per application, per topic),
// so caching compiles each distinct selector once per process.
//
// Compile errors are cached too (negative caching): a corrupt selector
// arriving in a flood of messages is rejected by a map lookup rather
// than a fresh failed parse per message.
type Cache struct {
	shards [cacheShards]cacheShard
	// perShard is the LRU capacity of each shard.
	perShard     int
	hits, misses atomic.Uint64
}

const cacheShards = 16

// DefaultCacheCapacity is the total entry budget of NewCache(0) and of
// the process-global cache: generous for any realistic working set of
// distinct selectors, small enough that pathological selector churn
// (an attacker minting unique selectors) stays bounded.
const DefaultCacheCapacity = 4096

type cacheShard struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	order   *list.List // front = most recently used
}

type cacheEntry struct {
	src string
	sel *Selector // nil when err != nil
	err error
}

// NewCache creates a cache holding up to capacity compiled selectors
// (0 means DefaultCacheCapacity).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	perShard := (capacity + cacheShards - 1) / cacheShards
	if perShard < 1 {
		perShard = 1
	}
	c := &Cache{perShard: perShard}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*list.Element)
		c.shards[i].order = list.New()
	}
	return c
}

// shardFor hashes src (FNV-1a) to a shard so concurrent compiles of
// different selectors rarely contend on one lock.
func shardFor[S string | []byte](c *Cache, src S) *cacheShard {
	h := uint32(2166136261)
	for i := 0; i < len(src); i++ {
		h ^= uint32(src[i])
		h *= 16777619
	}
	return &c.shards[h%cacheShards]
}

// Compile returns the compiled selector for src, parsing it only on the
// first sighting (per eviction lifetime).  The returned *Selector is
// shared: it is immutable after compilation but for its memo, and safe
// for concurrent Matches and Memo calls.
func (c *Cache) Compile(src string) (*Selector, error) {
	sh := shardFor(c, src)
	sh.mu.Lock()
	if el, ok := sh.entries[src]; ok {
		return c.hit(sh, el)
	}
	sh.mu.Unlock()
	return c.install(sh, src)
}

// CompileBytes is Compile for source text still sitting in a receive
// buffer: a hit allocates nothing (the map is indexed by the bytes in
// place), and only a first sighting copies src, into the string the
// cache and the compiled selector then keep.  src is not retained.
func (c *Cache) CompileBytes(src []byte) (*Selector, error) {
	sh := shardFor(c, src)
	sh.mu.Lock()
	if el, ok := sh.entries[string(src)]; ok {
		return c.hit(sh, el)
	}
	sh.mu.Unlock()
	return c.install(sh, string(src))
}

// hit finishes a lookup that found el; the shard lock is held on entry
// and released here.
func (c *Cache) hit(sh *cacheShard, el *list.Element) (*Selector, error) {
	sh.order.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	sh.mu.Unlock()
	c.hits.Add(1)
	ctrCacheHit.Inc()
	return e.sel, e.err
}

// install compiles src after a lookup missed and caches the outcome.
func (c *Cache) install(sh *cacheShard, src string) (*Selector, error) {
	// Parse outside the shard lock: a slow parse of one selector must
	// not stall cache hits for every other selector in the shard.
	// Concurrent first sightings may both parse; the second install is
	// a no-op.
	sel, err := Compile(src)

	sh.mu.Lock()
	if el, ok := sh.entries[src]; ok { // raced with another first sighting
		return c.hit(sh, el)
	}
	el := sh.order.PushFront(&cacheEntry{src: src, sel: sel, err: err})
	sh.entries[src] = el
	for sh.order.Len() > c.perShard {
		old := sh.order.Back()
		sh.order.Remove(old)
		delete(sh.entries, old.Value.(*cacheEntry).src)
	}
	sh.mu.Unlock()
	c.misses.Add(1)
	ctrCacheMiss.Inc()
	return sel, err
}

// CacheStats reports cache activity.
type CacheStats struct {
	Hits, Misses uint64
	Entries      int
}

// Stats returns a snapshot of the hit/miss counters and resident size.
func (c *Cache) Stats() CacheStats {
	st := CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load()}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st.Entries += sh.order.Len()
		sh.mu.Unlock()
	}
	return st
}

var (
	ctrCacheHit  = metrics.C(metrics.CtrSelectorCacheHit)
	ctrCacheMiss = metrics.C(metrics.CtrSelectorCacheMiss)
)

// defaultCache is the process-global compiled-selector cache used by
// the message dispatch path.
var defaultCache = NewCache(0)

// DefaultCache returns the process-global compiled-selector cache.
func DefaultCache() *Cache { return defaultCache }

// CompileCached compiles src through the process-global cache.
func CompileCached(src string) (*Selector, error) {
	return defaultCache.Compile(src)
}
