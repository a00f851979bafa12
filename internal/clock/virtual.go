package clock

import (
	"cmp"
	"container/heap"
	"slices"
	"sync"
	"time"
)

// event is one unit of work on the heap: a ScheduleFunc closure or a
// ScheduleBatch call.
type event interface {
	// fire runs the event at its scheduled instant.  It executes on the
	// goroutine driving Advance/AdvanceTo/Step, with no clock locks
	// held, so it may schedule further events freely.
	fire(now time.Time)
}

// BatchEvent is n items scheduled by one ScheduleBatch call.  The batch
// holds one heap entry however large n is, yet each item fires at its
// own instant, in the order n separate ScheduleFunc calls would give.
type BatchEvent interface {
	// FireItem runs item i (its index in the delays passed to
	// ScheduleBatch) at its instant, on the driving goroutine with no
	// clock locks held, like a ScheduleFunc callback.
	FireItem(i int, now time.Time)
}

// DefaultEpoch anchors a zero-configured Virtual clock.  A fixed,
// non-zero epoch keeps virtual timestamps stable across runs (the
// determinism contract) while staying clear of the zero time.Time that
// several layers treat as "unset".
var DefaultEpoch = time.Date(2000, time.January, 1, 0, 0, 0, 0, time.UTC)

// Virtual is a deterministic discrete-event clock: an event heap whose
// time advances only when the driving goroutine says so.  All virtual-
// time work is a heap event (ScheduleFunc, ScheduleBatch) that runs on
// that goroutine in (instant, schedule-order) order: nothing sleeps,
// and no goroutine wakes beside the driver, so a run is as
// deterministic as the events it schedules.  Now, ScheduleFunc and
// ScheduleBatch are safe for concurrent use; Advance/AdvanceTo/Step
// must be driven by one goroutine at a time (a second driver blocks).
type Virtual struct {
	mu    sync.Mutex
	nowNS int64
	heap  eventHeap
	seq   uint64 // schedule-order tiebreak for identical instants
	// behind counts the batch items waiting behind their batch's heap
	// entry, so Len counts every item as one event.
	behind int

	advMu sync.Mutex // serializes drivers
}

// NewVirtual creates a virtual clock reading start (the zero time
// means DefaultEpoch).
func NewVirtual(start time.Time) *Virtual {
	if start.IsZero() {
		start = DefaultEpoch
	}
	return &Virtual{nowNS: start.UnixNano()}
}

// vevent is one heap entry.
type vevent struct {
	atNS int64
	seq  uint64
	ev   event
}

// eventHeap is a min-heap on (atNS, seq).
type eventHeap []*vevent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].atNS != h[j].atNS {
		return h[i].atNS < h[j].atNS
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*vevent)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return time.Unix(0, v.nowNS)
}

// ScheduleFunc enqueues f to run once the clock has advanced by d
// (d <= 0 runs it on the next Advance/Step, before time moves).  Once
// scheduled it runs: there is no handle to cancel it.
func (v *Virtual) ScheduleFunc(d time.Duration, f func(now time.Time)) {
	v.mu.Lock()
	defer v.mu.Unlock()
	heap.Push(&v.heap, &vevent{atNS: v.nowNS + int64(max(d, 0)), seq: v.seq, ev: funcEvent(f)})
	v.seq++
}

type funcEvent func(now time.Time)

func (f funcEvent) fire(now time.Time) { f(now) }

// ScheduleBatch enqueues item i of ev to fire once the clock has
// advanced by delays[i] (clamped at 0, like ScheduleFunc), for every i.
// It fires them exactly as len(delays) ScheduleFunc calls in index order
// would: the items take consecutive schedule orders, so they interleave
// with other events by (instant, schedule order), and an event
// scheduled after the call at an equal instant fires after every item.
// The whole batch is one heap entry, re-keyed to its next item as each
// one fires.
// delays is copied; the caller may reuse it.
func (v *Virtual) ScheduleBatch(delays []time.Duration, ev BatchEvent) {
	if len(delays) == 0 {
		return
	}
	b := &batch{ev: ev, items: make([]batchItem, len(delays))}
	v.mu.Lock()
	defer v.mu.Unlock()
	for i, d := range delays {
		b.items[i] = batchItem{atNS: v.nowNS + int64(max(d, 0)), i: i}
	}
	// slices.SortFunc, not sort.Slice: the latter's reflect swapper
	// allocates on every call.
	slices.SortFunc(b.items, func(x, y batchItem) int {
		if c := cmp.Compare(x.atNS, y.atNS); c != 0 {
			return c
		}
		return cmp.Compare(x.i, y.i)
	})
	b.seq0 = v.seq
	v.seq += uint64(len(delays))
	b.entry = vevent{atNS: b.items[0].atNS, seq: b.seq0 + uint64(b.items[0].i), ev: b}
	heap.Push(&v.heap, &b.entry)
	v.behind += len(delays) - 1
}

// batch is one ScheduleBatch call on the heap: its entry is keyed by
// the next item to fire, at that item's instant and reserved schedule
// order seq0+i.
type batch struct {
	entry vevent
	ev    BatchEvent
	seq0  uint64
	items []batchItem // sorted by (atNS, i); items[next:] are pending
	next  int
}

type batchItem struct {
	atNS int64
	i    int
}

// fire runs, for the batch's heap entry, the item the driver's last pop
// took off the batch (popLocked advanced next).  Only the driver pops
// and fires, so next is not read concurrently.
func (b *batch) fire(now time.Time) {
	b.ev.FireItem(b.items[b.next-1].i, now)
}

// popLocked takes the earliest pending event off the heap, moving time
// to its instant.  A batch gives up one item per pop: its entry stays
// on the heap, re-keyed in place to the next item, until the last item
// pops.  Caller holds mu; the heap is non-empty.
func (v *Virtual) popLocked() *vevent {
	e := v.heap[0]
	if e.atNS > v.nowNS {
		v.nowNS = e.atNS
	}
	if b, ok := e.ev.(*batch); ok {
		if b.next++; b.next < len(b.items) {
			it := b.items[b.next]
			e.atNS, e.seq = it.atNS, b.seq0+uint64(it.i)
			heap.Fix(&v.heap, 0)
			v.behind--
			return e
		}
	}
	heap.Pop(&v.heap)
	return e
}

// Advance moves the clock forward by d, firing every event scheduled
// in (now, now+d] in deterministic (instant, schedule-order) order.
// Events fired may schedule further events; those whose instants also
// fall within the window fire in the same pass.  Returns the number of
// events fired.
func (v *Virtual) Advance(d time.Duration) int {
	return v.AdvanceTo(v.Now().Add(d))
}

// AdvanceTo is Advance toward an absolute instant (a target at or
// before the current reading fires nothing and leaves time unchanged).
func (v *Virtual) AdvanceTo(t time.Time) int {
	v.advMu.Lock()
	defer v.advMu.Unlock()
	targetNS := t.UnixNano()
	fired := 0
	for {
		v.mu.Lock()
		if len(v.heap) == 0 || v.heap[0].atNS > targetNS {
			if targetNS > v.nowNS {
				v.nowNS = targetNS
			}
			v.mu.Unlock()
			return fired
		}
		e := v.popLocked()
		now := time.Unix(0, v.nowNS)
		v.mu.Unlock()
		e.ev.fire(now)
		fired++
	}
}

// Step fires the single earliest pending event, moving time to its
// instant; it reports false with an empty heap.
func (v *Virtual) Step() bool {
	v.advMu.Lock()
	defer v.advMu.Unlock()
	v.mu.Lock()
	if len(v.heap) == 0 {
		v.mu.Unlock()
		return false
	}
	e := v.popLocked()
	now := time.Unix(0, v.nowNS)
	v.mu.Unlock()
	e.ev.fire(now)
	return true
}

// RunUntilIdle fires events until the heap drains or max fire (max <= 0
// means no bound), returning the count fired.  Work that reschedules
// itself — a node's poll, a scenario's periodic sampling — never
// drains, so bound those drives with max or with AdvanceTo.
func (v *Virtual) RunUntilIdle(max int) int {
	fired := 0
	for max <= 0 || fired < max {
		if !v.Step() {
			break
		}
		fired++
	}
	return fired
}
