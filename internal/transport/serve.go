package transport

import (
	"time"

	"adaptiveqos/internal/clock"
)

// Serve drives one node on its substrate: handle gets every packet conn
// receives and, when every > 0, poll runs every that often.  The nodes
// themselves (core.Client, core.Coordinator, basestation.BaseStation)
// start nothing; how they are scheduled is decided here, once, from
// conn.Clock().
//
//   - A conn on a clock.Virtual — a DESNet node, the only kind that
//     carries one — runs inline: handle is installed as its handler, on
//     the goroutine driving that clock, and poll is a heap event on it.
//     Nothing is started, so the run is as deterministic as the
//     network.  Once the conn closes neither runs again, and the
//     pending poll leaves the clock's heap the next time it comes due.
//   - On the wall clock (SimNet, UDP) one goroutine hands handle the
//     packets queued in the conn's mailbox, a batch at a time, and
//     calls poll on each tick of clock.Wall.NewTicker(every), one call
//     at a time, until the conn closes and what it queued is handled.
//
// conn must be this package's, and nothing may read its Recv.
// Close conn before calling stop: stop waits until neither handle nor
// poll runs again.  It is safe to call more than once.
func Serve(conn Conn, every time.Duration, handle func(Packet), poll func(time.Time)) (stop func()) {
	if virt, ok := conn.Clock().(*clock.Virtual); ok {
		n := conn.(*node)
		n.serveInline(handle)
		var tick func(time.Time)
		tick = func(now time.Time) {
			n.mu.Lock()
			closed := n.closed
			n.mu.Unlock()
			if !closed {
				poll(now)
				virt.ScheduleFunc(every, tick)
			}
		}
		if every > 0 {
			virt.ScheduleFunc(every, tick)
		}
		return func() {}
	}
	box := conn.(interface{ mailbox() *mailbox }).mailbox()
	var tick <-chan time.Time // nil: never ready
	var ticker *time.Ticker
	if every > 0 {
		ticker = clock.Wall.NewTicker(every)
		tick = ticker.C
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var spare []Packet // the last batch, emptied: the next take's queue
		for {
			select {
			case <-box.wake:
				box.mu.Lock()
				batch, closed := box.queue, box.closed
				box.queue = spare
				box.mu.Unlock()
				for i := range batch {
					handle(batch[i])
				}
				clear(batch)
				spare = batch[:0]
				if closed {
					if ticker != nil {
						ticker.Stop()
					}
					return
				}
			case now := <-tick:
				poll(now)
			}
		}
	}()
	return func() { <-done }
}

// serveInline turns c into a handler-mode node run by h.  Packets that
// reached its mailbox before are handed to h first, in arrival order,
// and the mailbox, which nothing reaches any more, is let go.
func (c *node) serveInline(h func(Packet)) {
	c.mu.Lock()
	c.handler = h
	box := c.box
	c.box = nil
	c.mu.Unlock()
	if box != nil {
		for _, p := range box.queue {
			h(p)
		}
	}
}
