package transport

// SimNet is the simulated broadcast network on the wall clock (see
// engine for the model it shares with DESNet).  Zero-delay links
// deliver synchronously in the sender's goroutine, preserving
// per-sender FIFO order; delayed frames wait in one deadline queue
// behind one real timer, so a Link's Delay, Jitter and serialization
// time are real elapsed time.
//
// The seeded generator makes the loss/jitter/duplication draws of a
// single sending goroutine reproducible run to run; concurrent senders
// interleave their draws as the scheduler interleaves them.  For a
// fully deterministic run use DESNet.
type SimNet struct{ engine }

// SimNetConfig configures a simulated network.
type SimNetConfig struct {
	// Seed initializes the network's random source; 0 means 1.
	Seed int64
	// DefaultLink applies to node pairs with no explicit link.
	DefaultLink Link
	// MTU bounds frame size; 0 means 64 KiB.
	MTU int
	// InboxDepth is the most packets a node's inbox holds, which grows
	// to that as needed; 0 means 1024.
	InboxDepth int
}

// NewSimNet creates an empty simulated network.
func NewSimNet(cfg SimNetConfig) *SimNet {
	n := &SimNet{}
	n.init(cfg.Seed, cfg.DefaultLink, cfg.MTU, cfg.InboxDepth, nil)
	return n
}
