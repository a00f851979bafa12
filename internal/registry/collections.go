package registry

import (
	"sync"
	"time"

	"adaptiveqos/internal/metrics"
)

var ctrCollectEvictions = metrics.C(metrics.CtrCollectEvictions)

// Parking bounds: how many distinct not-yet-announced objects may hold
// parked packets, and how many packets each may park.  Beyond the
// bounds early packets are dropped (the announce-then-data protocol
// retransmits nothing, so parking is best-effort).
const (
	maxParkedObjects   = 32
	maxParkedPerObject = 64
)

// Packet is one parked early-arriving data packet of a collection.
type Packet struct {
	Idx  int
	Data []byte
}

// Collections tracks in-flight reassembly state for objects announced
// on the wired side: the announce metadata (generic: the registry
// layer does not interpret it), packets that arrived before their
// announce, and a last-activity timestamp driving TTL eviction of
// collections that never complete (a sender crashing mid-transfer, a
// lossy segment eating the tail packets).  Completed collections are
// purged eagerly by the caller; the sweep is the backstop that keeps
// the broker's memory bounded either way.
type Collections[M any] struct {
	mu      sync.Mutex
	ttl     time.Duration
	entries map[string]*collEntry[M]
	parked  int // objects currently holding parked packets
}

type collEntry[M any] struct {
	meta    M
	hasMeta bool
	parked  []Packet
	touched time.Time
}

// NewCollections returns an empty tracker whose never-completed
// entries expire ttl after their last activity (ttl <= 0 disables the
// sweep: Sweep never evicts).
func NewCollections[M any](ttl time.Duration) *Collections[M] {
	return &Collections[M]{ttl: ttl, entries: make(map[string]*collEntry[M])}
}

// TTL returns the configured eviction horizon.
func (c *Collections[M]) TTL() time.Duration { return c.ttl }

// Announce records the metadata for object and returns (clearing) any
// packets that were parked waiting for it, in arrival order.
func (c *Collections[M]) Announce(object string, meta M, now time.Time) []Packet {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[object]
	if e == nil {
		e = &collEntry[M]{}
		c.entries[object] = e
	}
	e.meta, e.hasMeta = meta, true
	e.touched = now
	parked := e.parked
	if parked != nil {
		e.parked = nil
		c.parked--
	}
	return parked
}

// Meta returns the announced metadata for object.
func (c *Collections[M]) Meta(object string) (M, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[object]; ok && e.hasMeta {
		return e.meta, true
	}
	var zero M
	return zero, false
}

// Park stores an early-arriving data packet (one that overtook its
// announce), retaining data itself: the caller must not write to it
// again.  It reports whether the packet was kept; packets beyond the
// parking bounds are dropped.
func (c *Collections[M]) Park(object string, idx int, data []byte, now time.Time) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, existed := c.entries[object]
	if !existed {
		if c.parked >= maxParkedObjects {
			return false
		}
		e = &collEntry[M]{}
		c.entries[object] = e
	}
	if len(e.parked) >= maxParkedPerObject {
		return false
	}
	if e.parked == nil {
		if existed && c.parked >= maxParkedObjects {
			return false
		}
		c.parked++
	}
	e.parked = append(e.parked, Packet{Idx: idx, Data: data})
	e.touched = now
	return true
}

// Touch refreshes object's activity timestamp (an accepted in-order
// packet: the transfer is alive, keep it out of the sweep).
func (c *Collections[M]) Touch(object string, now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[object]; ok {
		e.touched = now
	}
}

// Purge drops all state for object (called after the collected image
// has been delivered), reporting whether it was tracked.
func (c *Collections[M]) Purge(object string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[object]
	if !ok {
		return false
	}
	if e.parked != nil {
		c.parked--
	}
	delete(c.entries, object)
	return true
}

// Sweep evicts every entry idle longer than the TTL and returns the
// evicted object IDs (so the caller can drop its own per-object state,
// e.g. the image reassembler's packet buffers).  Evictions are counted
// in metrics (CtrCollectEvictions → aqos_registry_collect_evictions).
func (c *Collections[M]) Sweep(now time.Time) []string {
	if c.ttl <= 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var evicted []string
	for object, e := range c.entries {
		if now.Sub(e.touched) > c.ttl {
			if e.parked != nil {
				c.parked--
			}
			delete(c.entries, object)
			evicted = append(evicted, object)
		}
	}
	if len(evicted) > 0 {
		ctrCollectEvictions.Add(uint64(len(evicted)))
	}
	return evicted
}

// Len returns the number of tracked collections.
func (c *Collections[M]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
