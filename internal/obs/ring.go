package obs

import "sync"

// EventKind classifies trace-log entries.
type EventKind uint8

// Event kinds.
const (
	// EventDrop is a message dropped, filtered or rejected at a stage.
	EventDrop EventKind = iota
	// EventNote is an informational stage event (transform applied,
	// reorder skip, ...).
	EventNote
)

// String returns the kind label.
func (k EventKind) String() string {
	switch k {
	case EventDrop:
		return "drop"
	case EventNote:
		return "note"
	default:
		return "event(?)"
	}
}

// Event is one trace-log entry.
type Event struct {
	At     int64 // UnixNano
	MsgID  uint64
	NS     int64 // stage latency for span events; 0 otherwise
	Detail string
	Stage  Stage
	Kind   EventKind
}

// ringCapacity bounds the in-memory trace log.  1<<12 entries keep a
// few seconds of busy-pipeline history for /debug/qos without growing.
const ringCapacity = 1 << 12

// eventRing is a fixed-capacity overwrite-oldest trace log.  The
// enabled pipeline appends under a mutex (the disabled path never
// reaches it); Snapshot returns events oldest-first.
type eventRing struct {
	mu   sync.Mutex
	buf  [ringCapacity]Event
	next uint64 // total appends; buf index is next % ringCapacity
}

var events eventRing

func (r *eventRing) add(ev Event) {
	r.mu.Lock()
	r.buf[r.next%ringCapacity] = ev
	r.next++
	r.mu.Unlock()
}

// snapshot returns up to max most-recent events, oldest first
// (max <= 0 means all retained events).
func (r *eventRing) snapshot(max int) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	count := n
	if count > ringCapacity {
		count = ringCapacity
	}
	if max > 0 && uint64(max) < count {
		count = uint64(max)
	}
	out := make([]Event, count)
	for i := uint64(0); i < count; i++ {
		out[i] = r.buf[(n-count+i)%ringCapacity]
	}
	return out
}

// Events returns up to max most-recent trace events, oldest first
// (max <= 0 returns every retained event).
func Events(max int) []Event { return events.snapshot(max) }
