package clock

import (
	"cmp"
	"container/heap"
	"slices"
	"sync"
	"time"
)

// Event is work scheduled on a Virtual clock's heap.  Implementing it
// directly (rather than going through ScheduleFunc's closure) saves the
// closure's allocation; work that fans out to many instants at once —
// the discrete-event network's sends — is a BatchEvent instead.
type Event interface {
	// Fire runs the event at its scheduled instant.  It executes on the
	// goroutine driving Advance/AdvanceTo/Step, with no clock locks
	// held, so it may schedule further events freely.
	Fire(now time.Time)
}

// BatchEvent is n items scheduled by one ScheduleBatch call.  The batch
// holds one heap entry however large n is, yet each item fires at its
// own instant, in the order n separate Schedule calls would give.
type BatchEvent interface {
	// FireItem runs item i (its index in the delays passed to
	// ScheduleBatch) at its instant, under the same rules as Event.Fire.
	FireItem(i int, now time.Time)
}

// DefaultEpoch anchors a zero-configured Virtual clock.  A fixed,
// non-zero epoch keeps virtual timestamps stable across runs (the
// determinism contract) while staying clear of the zero time.Time that
// several layers treat as "unset".
var DefaultEpoch = time.Date(2000, time.January, 1, 0, 0, 0, 0, time.UTC)

// Virtual is a deterministic discrete-event clock: time advances only
// when the driving goroutine says so, and all scheduled work runs on
// that goroutine in (instant, schedule-order) order — no real sleeping
// anywhere.  Concurrent use of the scheduling surface (Now, Schedule,
// timers, tickers, Sleep) is safe; Advance/AdvanceTo/Step
// must be driven by one goroutine at a time (a second driver blocks).
//
// Goroutines blocked in Sleep or on timer channels wake when the
// driver advances past their deadline; they run concurrently with the
// driver, so full run-for-run determinism holds when the simulation's
// work happens inside Event.Fire callbacks (the discrete-event network
// delivers to handler-mode attachments for exactly this reason).
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
	atNS    int64
	seq     uint64
	ev      Event
	index   int  // heap position, -1 when popped/stopped
	stopped bool // Stop raced a pending fire
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
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*vevent)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return time.Unix(0, v.nowNS)
}

// Since implements Clock.
func (v *Virtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// Schedule enqueues ev to fire once the clock has advanced by d
// (d <= 0 fires on the next Advance/Step, before time moves).  The
// returned handle cancels it.
func (v *Virtual) Schedule(d time.Duration, ev Event) *Scheduled {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.scheduleLocked(d, ev)
}

func (v *Virtual) scheduleLocked(d time.Duration, ev Event) *Scheduled {
	if d < 0 {
		d = 0
	}
	e := &vevent{atNS: v.nowNS + int64(d), seq: v.seq, ev: ev}
	v.seq++
	heap.Push(&v.heap, e)
	return &Scheduled{v: v, e: e}
}

// ScheduleBatch enqueues item i of ev to fire once the clock has
// advanced by delays[i] (clamped at 0, like Schedule), for every i.  It
// fires them exactly as len(delays) Schedule calls in index order
// would: the items take consecutive schedule orders, so they interleave
// with other events by (instant, schedule order), and an event
// scheduled after the call at an equal instant fires after every item.
// The whole batch is one heap entry, re-keyed to its next item as each
// one fires, and no handle is returned: a batch cannot be stopped.
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

// Fire implements Event for the batch's heap entry: it fires the item
// the driver's last pop took off the batch (popLocked advanced next).
// Only the driver pops and fires, so next is not read concurrently.
func (b *batch) Fire(now time.Time) {
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

// ScheduleFunc is Schedule for a plain func.
func (v *Virtual) ScheduleFunc(d time.Duration, f func(now time.Time)) *Scheduled {
	return v.Schedule(d, funcEvent(f))
}

type funcEvent func(now time.Time)

func (f funcEvent) Fire(now time.Time) { f(now) }

// Scheduled is a handle to one pending event.
type Scheduled struct {
	v *Virtual
	e *vevent
}

// Stop cancels the event, reporting whether it was still pending.
func (s *Scheduled) Stop() bool {
	s.v.mu.Lock()
	defer s.v.mu.Unlock()
	if s.e.stopped || s.e.index < 0 {
		s.e.stopped = true
		return false
	}
	heap.Remove(&s.v.heap, s.e.index)
	s.e.stopped = true
	return true
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
		stopped := e.stopped // a Stop that loses the race to the pop writes it under v.mu
		v.mu.Unlock()
		if !stopped {
			e.ev.Fire(now)
			fired++
		}
	}
}

// Step fires the single earliest pending event, moving time to its
// instant; it reports false with an empty heap.
func (v *Virtual) Step() bool {
	v.advMu.Lock()
	defer v.advMu.Unlock()
	for {
		v.mu.Lock()
		if len(v.heap) == 0 {
			v.mu.Unlock()
			return false
		}
		e := v.popLocked()
		now := time.Unix(0, v.nowNS)
		stopped := e.stopped
		v.mu.Unlock()
		if stopped {
			continue
		}
		e.ev.Fire(now)
		return true
	}
}

// RunUntilIdle fires events until the heap drains or max fire (max <= 0
// means no bound), returning the count fired.  Self-rescheduling work
// (tickers) never drains, so bound those drives with AdvanceTo.
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

// --- Clock interface: Sleep / timers / tickers ---

// Sleep implements Clock: it blocks the calling goroutine until the
// driver advances the clock by d.  Sleeping on a Virtual clock nobody
// drives blocks forever; d <= 0 returns immediately.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	ch := make(chan struct{})
	v.ScheduleFunc(d, func(time.Time) { close(ch) })
	<-ch
}

// NewTimer implements Clock.
func (v *Virtual) NewTimer(d time.Duration) Timer {
	t := &virtualTimer{v: v, ch: make(chan time.Time, 1)}
	t.s = v.Schedule(d, t)
	return t
}

// virtualTimer sends on ch when it fires.  Each arming schedules the
// timer itself, so a Reset re-arms it whether it fired or was stopped.
type virtualTimer struct {
	v  *Virtual
	ch chan time.Time

	mu    sync.Mutex
	s     *Scheduled
	fired bool
}

func (t *virtualTimer) C() <-chan time.Time { return t.ch }

// Fire implements Event.  Like time.Timer, a send finding the channel
// full (an earlier fire nobody read) drops the tick.
func (t *virtualTimer) Fire(now time.Time) {
	t.mu.Lock()
	t.fired = true
	t.mu.Unlock()
	select {
	case t.ch <- now:
	default:
	}
}

func (t *virtualTimer) Stop() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.fired {
		return false
	}
	return t.s.Stop()
}

func (t *virtualTimer) Reset(d time.Duration) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	active := !t.fired && t.s.Stop()
	t.fired = false
	t.s = t.v.Schedule(d, t)
	return active
}

// NewTicker implements Clock.  Like time.Ticker, a slow consumer
// misses ticks rather than blocking the driver (channel depth 1).
func (v *Virtual) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		panic("clock: non-positive Virtual ticker interval")
	}
	t := &virtualTicker{v: v, d: d, ch: make(chan time.Time, 1)}
	t.mu.Lock()
	t.s = v.Schedule(d, t)
	t.mu.Unlock()
	return t
}

type virtualTicker struct {
	v  *Virtual
	d  time.Duration
	ch chan time.Time

	mu      sync.Mutex
	s       *Scheduled
	stopped bool
}

func (t *virtualTicker) C() <-chan time.Time { return t.ch }

// Fire implements Event: deliver the tick (dropping it on a full
// channel, like time.Ticker) and rearm.
func (t *virtualTicker) Fire(now time.Time) {
	t.mu.Lock()
	if t.stopped {
		t.mu.Unlock()
		return
	}
	t.s = t.v.Schedule(t.d, t)
	t.mu.Unlock()
	select {
	case t.ch <- now:
	default:
	}
}

func (t *virtualTicker) Stop() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stopped {
		return
	}
	t.stopped = true
	t.s.Stop()
}
