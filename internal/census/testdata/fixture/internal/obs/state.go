package obs

import "sync"

type guarded struct {
	mu sync.Mutex
	n  int
}

// hits is shared by every caller in the process, which no text match
// for "sync." or "map[" on its line sees: the global-state rule flags it.
var hits guarded

// Hit counts one.
func Hit() { hits.mu.Lock(); hits.n++; hits.mu.Unlock() }
