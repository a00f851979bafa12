package selector

import (
	"sync"
	"sync/atomic"

	"adaptiveqos/internal/metrics"
)

// Cache is a concurrency-safe compiled-selector cache keyed by selector
// source text.  Every message on the wire carries its selector as text
// and every receiver must evaluate it, so without a cache each
// delivered message pays a full lex+parse.  Sessions reuse a small
// working set of distinct selectors (per application, per topic), so
// caching compiles each distinct selector once per process.
//
// One map under a read-write lock holds the entries, and a ring holds
// the same entries for CLOCK eviction: a hit takes only the read lock
// and sets the entry's reference bit, so hits do not exclude each
// other; a first sighting past DefaultCacheCapacity replaces the first
// entry the hand finds unreferenced, clearing the bits it passes.
//
// Compile errors are cached too (negative caching): a corrupt selector
// arriving in a flood of messages is rejected by a map lookup rather
// than a fresh failed parse per message.
type Cache struct {
	mu      sync.RWMutex
	entries map[string]*cacheEntry
	ring    []*cacheEntry // the entries in CLOCK order
	hand    int           // the next ring slot a full cache examines

	hits, misses *metrics.Counter
}

// DefaultCacheCapacity is the entry budget of every cache: generous for
// any realistic working set of distinct selectors, small enough that
// pathological selector churn (an attacker minting unique selectors)
// stays bounded.
const DefaultCacheCapacity = 4096

// cacheEntry is one compiled source.  It is immutable once installed
// but for ref, so a hit reads it outside the lock.
type cacheEntry struct {
	src string
	sel *Selector // nil when err != nil
	err error
	ref atomic.Bool // hit since the CLOCK hand last passed
}

// NewCache creates an empty cache of DefaultCacheCapacity entries,
// counting its hits and misses on its own.
func NewCache() *Cache {
	return &Cache{entries: make(map[string]*cacheEntry), hits: new(metrics.Counter), misses: new(metrics.Counter)}
}

// Compile returns the compiled selector for src, parsing it only on the
// first sighting (per eviction lifetime).  The returned *Selector is
// shared: it is immutable after compilation but for its memo, and safe
// for concurrent Matches and Memo calls.
func (c *Cache) Compile(src string) (*Selector, error) {
	c.mu.RLock()
	e := c.entries[src]
	c.mu.RUnlock()
	if e == nil {
		return c.install(src)
	}
	return c.hit(e)
}

// CompileBytes is Compile for source text still sitting in a receive
// buffer: a hit allocates nothing (the map is indexed by the bytes in
// place), and only a first sighting copies src, into the string the
// cache and the compiled selector then keep.  src is not retained.
func (c *Cache) CompileBytes(src []byte) (*Selector, error) {
	c.mu.RLock()
	e := c.entries[string(src)]
	c.mu.RUnlock()
	if e == nil {
		return c.install(string(src))
	}
	return c.hit(e)
}

// hit returns e's outcome and marks e referenced, writing the bit only
// when it is clear so that hits on a hot entry share its cache line.
func (c *Cache) hit(e *cacheEntry) (*Selector, error) {
	if !e.ref.Load() {
		e.ref.Store(true)
	}
	c.hits.Inc()
	return e.sel, e.err
}

// install compiles src after a lookup missed and caches the outcome.
func (c *Cache) install(src string) (*Selector, error) {
	// Parse outside the lock: a slow parse of one selector must not
	// stall cache hits for every other selector.  Concurrent first
	// sightings may both parse; the second install is a hit.
	sel, err := Compile(src)

	c.mu.Lock()
	if e := c.entries[src]; e != nil { // raced with another first sighting
		c.mu.Unlock()
		return c.hit(e)
	}
	e := &cacheEntry{src: src, sel: sel, err: err}
	if len(c.ring) < DefaultCacheCapacity {
		c.ring = append(c.ring, e)
	} else {
		// One turn of the hand clears every bit, so the sweep ends.
		for c.ring[c.hand].ref.Swap(false) {
			c.hand = (c.hand + 1) % len(c.ring)
		}
		delete(c.entries, c.ring[c.hand].src)
		c.ring[c.hand] = e
		c.hand = (c.hand + 1) % len(c.ring)
	}
	c.entries[src] = e
	c.mu.Unlock()
	c.misses.Inc()
	return sel, err
}

// CacheStats reports cache activity.
type CacheStats struct {
	Hits, Misses uint64
	Entries      int
}

// Stats returns a snapshot of the hit/miss counters and resident size.
func (c *Cache) Stats() CacheStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Entries: len(c.entries)}
}

// defaultCache is the process-global compiled-selector cache used by
// the message dispatch path.  Its hits and misses are the registry's
// selector.cache.hit and .miss counters.
var defaultCache = func() *Cache {
	c := NewCache()
	c.hits, c.misses = metrics.C(metrics.CtrSelectorCacheHit), metrics.C(metrics.CtrSelectorCacheMiss)
	return c
}()

// DefaultCache returns the process-global compiled-selector cache.
func DefaultCache() *Cache { return defaultCache }

// CompileCached compiles src through the process-global cache.
func CompileCached(src string) (*Selector, error) {
	return defaultCache.Compile(src)
}
