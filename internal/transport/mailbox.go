package transport

import "sync"

// mailbox is the inbox of a node nothing runs inline, costing what it
// holds (DESIGN.md §14).  queue grows with the backlog up to depth
// packets; wake is signalled when it turns non-empty and closed with
// the mailbox.  ch, made by the first Recv, takes the queue over.  mu
// is the owner's lock, which guards every field but wake.
type mailbox struct {
	mu     *sync.Mutex
	depth  int
	queue  []Packet
	wake   chan struct{}
	ch     chan Packet
	closed bool
}

// putLocked queues p, or reports false if the mailbox is full or closed.
func (b *mailbox) putLocked(p Packet) bool {
	switch {
	case b.closed:
		return false
	case b.ch != nil:
		select {
		case b.ch <- p:
			return true
		default:
			return false
		}
	case len(b.queue) == b.depth:
		return false
	case len(b.queue) == cap(b.queue): // double, but never past depth
		b.queue = append(make([]Packet, 0, min(max(2*len(b.queue), 4), b.depth)), b.queue...)
	}
	if b.queue = append(b.queue, p); len(b.queue) == 1 {
		select {
		case b.wake <- struct{}{}:
		default: // one is pending
		}
	}
	return true
}

// recv returns the channel Recv hands out: nil without a mailbox.
func (b *mailbox) recv() <-chan Packet {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.ch == nil {
		b.ch = make(chan Packet, b.depth)
		for _, p := range b.queue {
			b.ch <- p
		}
		b.queue = nil
		if b.closed {
			close(b.ch)
		}
	}
	return b.ch
}

// closeLocked closes the mailbox: nothing more arrives.
func (b *mailbox) closeLocked() {
	if b != nil {
		b.closed = true
		close(b.wake)
		if b.ch != nil {
			close(b.ch)
		}
	}
}
