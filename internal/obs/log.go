package obs

import (
	"slices"
	"sync"
)

// The event log (DESIGN.md §8, §11) keeps a message's history: each
// flight hop, drop and note is one Event in one bounded overwrite-oldest
// ring under one mutex.  An index maps a retained trace to its hops,
// linked newest to oldest; a trace goes whole when its first is overwritten.

// EventKind classifies log records.
type EventKind uint8

// Event kinds.  Events returns drops and notes; hops are read per trace.
const (
	// EventDrop is a message dropped, filtered or rejected at a stage.
	EventDrop EventKind = iota
	// EventNote is an informational stage event (a transform, a skip).
	EventNote
	kindHop
)

// String returns the kind label.
func (k EventKind) String() string {
	if k < kindHop {
		return [...]string{"drop", "note"}[k]
	}
	return "event(?)"
}

// Event is one log record, 48 bytes whatever its kind.
type Event struct {
	At     int64 // UnixNano: a hop's or note's instant, a timed drop's span start
	MsgID  uint64
	NS     int64  // a timed drop's stage latency; a hop's µs since its trace's origin
	Detail string // a drop's or note's detail; a hop's node
	Stage  Stage
	Kind   EventKind
	prev   uint32 // a hop's previous hop in its trace (ring slot)
}

// logCapacity bounds the log.  collab -trace -events 1000 leaves about
// 10 000 hops on its newest 1 024 traces; this keeps them all, with
// room for an instrumented run's drops and notes.
const logCapacity = 1 << 14

// trace indexes one retained trace's hops.
type trace struct {
	origin int64  // the local UnixNano instant of delta zero
	first  uint64 // append sequence of its first hop
	last   uint32 // ring slot of its latest hop
	count  uint32 // its hops, at most maxTraceHops
}

// eventLog is the process-global log.  Only enabled paths write it, and
// the first write allocates its storage.
type eventLog struct {
	mu     sync.Mutex
	recs   []Event // record seq is in slot seq%logCapacity
	next   uint64  // total appends: the next record's seq
	traces map[uint64]trace
}

var elog eventLog

// claimLocked returns the slot the next record overwrites, first
// evicting the trace whose first hop is there.  Keying on the hop's seq
// keeps an id re-created since from being evicted by its old hops.
func (l *eventLog) claimLocked() *Event {
	if l.recs == nil {
		l.recs = make([]Event, logCapacity)
		l.traces = make(map[uint64]trace)
	}
	r := &l.recs[l.next%logCapacity]
	if l.next >= logCapacity && r.Kind == kindHop {
		if t, ok := l.traces[r.MsgID]; ok && t.first == l.next-logCapacity {
			delete(l.traces, r.MsgID)
		}
	}
	return r
}

// traceLocked runs the next append's eviction, harmless if none follows,
// and returns id's index entry or a new one anchored at origin.
func (l *eventLog) traceLocked(id uint64, origin int64) trace {
	l.claimLocked()
	if t, ok := l.traces[id]; ok {
		return t
	}
	return trace{origin: origin}
}

// hopLocked appends h to trace id, whose entry traceLocked returned,
// and returns the updated entry.
func (l *eventLog) hopLocked(id uint64, t trace, h Hop, at int64) trace {
	slot := uint32(l.next % logCapacity)
	l.recs[slot] = Event{At: at, MsgID: id, NS: int64(h.DeltaUS), Detail: h.Node, Stage: h.Stage, Kind: kindHop, prev: t.last}
	if t.count == 0 {
		t.first = l.next
	}
	t.last, t.count = slot, t.count+1
	l.traces[id] = t
	l.next++
	return t
}

// hopsLocked appends t's hops to dst in recorded order.
func (l *eventLog) hopsLocked(dst []Hop, t trace) []Hop {
	n := len(dst)
	dst = append(dst, make([]Hop, t.count)...)
	for i, slot := len(dst)-1, t.last; i >= n; i-- {
		r := &l.recs[slot]
		dst[i] = Hop{Node: r.Detail, Stage: r.Stage, DeltaUS: uint32(r.NS)}
		slot = r.prev
	}
	return dst
}

// holdsLocked reports whether trace t holds wire hop h.
func (l *eventLog) holdsLocked(t trace, h wireHop) bool {
	for i, slot := t.count, t.last; i > 0; i, slot = i-1, l.recs[slot].prev {
		if r := &l.recs[slot]; r.Stage == h.stage && uint32(r.NS) == h.delta && r.Detail == string(h.node) {
			return true
		}
	}
	return false
}

// logEvent appends a drop or note and offers it to the installed
// recorder: as a span when it ends a timed span, else as a note, a
// drop's detail prefixed "drop: ".
func logEvent(e Event, timed bool) {
	elog.mu.Lock()
	*elog.claimLocked() = e
	elog.next++
	elog.mu.Unlock()
	r := rec.Load()
	if r == nil {
		return
	}
	ev := RecEvent{Type: RecTypeSpan, AtNS: e.At, Msg: TraceHex(e.MsgID), Stage: e.Stage.String(), NS: e.NS, Detail: e.Detail}
	if !timed {
		ev.Type = RecTypeNote
		if e.Kind == EventDrop {
			ev.Detail = "drop: " + e.Detail
		}
	}
	r.Append(ev)
}

// newestLocked calls fn on the retained records, newest first, until
// it returns false.
func (l *eventLog) newestLocked(fn func(seq uint64, r *Event) bool) {
	for seq := l.next; seq > l.next-min(l.next, logCapacity); seq-- {
		if !fn(seq-1, &l.recs[(seq-1)%logCapacity]) {
			return
		}
	}
}

// Events returns up to max most-recent drops and notes, oldest first
// (max <= 0 returns every retained one).
func Events(max int) []Event {
	elog.mu.Lock()
	defer elog.mu.Unlock()
	var out []Event
	elog.newestLocked(func(_ uint64, r *Event) bool {
		if r.Kind != kindHop {
			out = append(out, *r)
		}
		return max <= 0 || len(out) < max
	})
	slices.Reverse(out)
	return out
}

// Hops returns a copy of the trace's hops in recorded order, or nil
// when the trace is not retained.
func Hops(id uint64) []Hop {
	elog.mu.Lock()
	defer elog.mu.Unlock()
	if t, ok := elog.traces[id]; ok {
		return elog.hopsLocked(nil, t)
	}
	return nil
}

// TraceSummaries lists up to max retained traces, newest-created first
// (max <= 0 returns all).
func TraceSummaries(max int) []TraceSummary {
	elog.mu.Lock()
	defer elog.mu.Unlock()
	var out []TraceSummary
	var buf [maxTraceHops]Hop
	elog.newestLocked(func(seq uint64, r *Event) bool {
		if t, ok := elog.traces[r.MsgID]; ok && r.Kind == kindHop && t.first == seq {
			out = append(out, summarize(r.MsgID, elog.hopsLocked(buf[:0], t)))
		}
		return max <= 0 || len(out) < max
	})
	return out
}

// ResetFlight empties the log — every trace, drop and note — keeping
// its storage (tests, debugging).
func ResetFlight() {
	elog.mu.Lock()
	elog.next = 0
	clear(elog.traces)
	elog.mu.Unlock()
}
