package transport

// drainer returns a func that waits until the wall scheduler has
// delivered every delayed frame queued before the call.  It waits
// through the queue itself: each call queues a marker due with the last
// of those frames and behind them in schedule order, and returns when
// the dispatcher delivers it.  The marker is a handler-mode node that is
// never attached, so no fan-out or rng draw sees it (a trace hook does),
// and one marker serves every call, so waiting allocates nothing.
func (n *engine) drainer() func() {
	done := make(chan struct{}, 1)
	mark := &node{net: n, id: "drain", handler: func(Packet) { done <- struct{}{} }}
	return func() {
		n.mu.Lock()
		now := n.clk.Now()
		at := now
		for i := range n.due {
			if n.due[i].at.After(at) {
				at = n.due[i].at
			}
		}
		n.queueLocked(at, now, delivery{dst: mark})
		n.mu.Unlock()
		<-done
	}
}
