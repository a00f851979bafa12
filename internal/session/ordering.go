package session

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"adaptiveqos/internal/obs"
)

// OrderBuffer restores one sender's event order: events arrive over
// the multicast substrate in arbitrary order but carry the sender's
// sequence number, and the buffer releases them strictly in sequence.
// Unlike the RTP reorder buffer it skips nothing by itself — session
// events are not loss-tolerant, so a replica requests history for a
// persistent gap and only its owner decides, through Skip, to give a
// gap up.
type OrderBuffer struct {
	mu   sync.Mutex
	next uint64
	// parked holds the events waiting behind a gap, ascending by Seq
	// and all ≥ next.  Arrivals are mostly in order, so an insert is
	// nearly always an append; keeping the order is what makes the
	// nearest and farthest parked event, and the holes between them,
	// readable without a scan or a sort.
	parked []Event
	// released is what the last Push or Skip returned, reused by the
	// next: the events of one release, with the rest of the array
	// cleared.
	released []Event

	// limit bounds parked (0 = unlimited): a corrupt or far-future
	// sequence number must not park events forever, so overflow evicts
	// the farthest-ahead event.
	limit int
}

// SeqRange is an inclusive range of sequence numbers.
type SeqRange struct{ From, To uint64 }

// NewOrderBuffer creates a buffer expecting sequence numbers starting
// at afterSeq+1 (0 for a stream numbered from 1).
func NewOrderBuffer(afterSeq uint64) *OrderBuffer {
	return &OrderBuffer{next: afterSeq + 1}
}

// SetLimit bounds the parked-event count to n (0 = unlimited).  When a
// Push would exceed the bound, the farthest-ahead event is evicted and
// the gap the buffer is stalled on stays visible through Gap, so a
// repair loop can act.
func (b *OrderBuffer) SetLimit(n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.limit = n
}

// Push ingests an event and returns the events now releasable in
// order.  Duplicates and already-released events are ignored.  The
// returned slice is the buffer's own and valid only until the next
// Push or Skip: consume it first.
func (b *OrderBuffer) Push(ev Event) []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ev.Seq < b.next {
		return nil
	}
	n := len(b.parked)
	at := n // where ev belongs; past the end for an in-order arrival
	if n > 0 && ev.Seq <= b.parked[n-1].Seq {
		at = sort.Search(n, func(i int) bool { return b.parked[i].Seq >= ev.Seq })
	}
	switch {
	case at < n && b.parked[at].Seq == ev.Seq:
		b.parked[at] = ev // a duplicate of a parked event
	case b.limit > 0 && n >= b.limit:
		// Full: keep the events nearest the gap (they release first)
		// and evict whichever of {farthest parked, new} is farther.
		evicted := ev
		if at < n {
			evicted = b.parked[n-1]
			copy(b.parked[at+1:], b.parked[at:n-1])
			b.parked[at] = ev
		}
		if obs.Enabled() {
			obs.Note(0, obs.StageReorder,
				fmt.Sprintf("order buffer overflow: evicting seq %d (limit %d, waiting for %d)", evicted.Seq, b.limit, b.next))
		}
		if at == n {
			return nil
		}
	default:
		b.parked = slices.Insert(b.parked, at, ev)
	}
	return b.releaseLocked()
}

// releaseLocked drains the contiguous run starting at next.
func (b *OrderBuffer) releaseLocked() []Event {
	run := 0
	for run < len(b.parked) && b.parked[run].Seq == b.next+uint64(run) {
		run++
	}
	if run == 0 {
		return nil
	}
	last := len(b.released)
	out := append(b.released[:0], b.parked[:run]...)
	if run < last {
		clear(out[run:last]) // the previous release's events must not stay reachable
	}
	b.released = out
	rest := copy(b.parked, b.parked[run:])
	clear(b.parked[rest:]) // released events must not stay reachable
	b.parked = b.parked[:rest]
	b.next += uint64(run)
	return out
}

// Skip abandons the gap the buffer is stalled on: it advances next to
// the smallest parked sequence number and returns the events now
// releasable in order, plus the skipped range [from, to).  With
// nothing parked it is a no-op (from == to).  Repair loops call this
// when their retry budget is exhausted, trading the lost events for
// liveness.  released is the buffer's own slice, as Push's is.
func (b *OrderBuffer) Skip() (released []Event, from, to uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	from = b.next
	if len(b.parked) == 0 {
		return nil, from, from
	}
	to = b.parked[0].Seq
	b.next = to
	return b.releaseLocked(), from, to
}

// Gap reports the first missing sequence number the buffer is waiting
// for and how many events are parked behind it.
func (b *OrderBuffer) Gap() (waitingFor uint64, parked int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.next, len(b.parked)
}

// Holes appends to dst the ranges missing between the sequence number
// the buffer is waiting for and the highest parked one, lowest first
// and at most max of them, and returns dst with the first sequence
// number past everything the buffer has seen (the one it is waiting
// for when nothing is parked).  What lies from there on is unknown to
// the buffer: lost or merely not sent yet.
func (b *OrderBuffer) Holes(dst []SeqRange, max int) (holes []SeqRange, past uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	past = b.next
	for _, ev := range b.parked {
		if ev.Seq > past && max > 0 {
			dst = append(dst, SeqRange{From: past, To: ev.Seq - 1})
			max--
		}
		past = ev.Seq + 1
	}
	return dst, past
}
