package transport

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"adaptiveqos/internal/clock"
)

// engine is the one simulated broadcast network behind SimNet and
// DESNet.  Nodes attach with an ID; multicast reaches every other
// attached node, in sorted-ID order, subject to the pairwise Link
// characteristics.  Randomness (loss, jitter, duplication) derives
// from a seeded generator drawn in that order, so a single-goroutine
// run is reproducible.
//
// A frame handed over with Give is delivered as it stands: every
// recipient (duplicate deliveries included) shares the sender's slice,
// read-only.  Multicast and Unicast clone their frame and give the
// clone, which is the only copy this file makes.
//
// The two exported faces differ only in which queue receives a
// delivery at the bottom of sendAll.  With virt set, every delivery —
// zero-delay included — goes onto the virtual heap and fires on
// whichever goroutine drives the clock: one send's copies are one
// clock.BatchEvent, one heap entry however wide the fan-out, firing
// each copy at its own instant in schedule order.  With virt nil,
// zero-delay deliveries happen synchronously in the sender's goroutine
// once the engine lock is released, and delayed ones wait in the
// engine's own deadline queue: a min-heap on (deadline, schedule order)
// that one wall timer and one dispatcher goroutine carry, both started
// by the first delayed send.  Equal delays therefore arrive in the order
// sent, and a delayed delivery costs no allocation of its own.
type engine struct {
	clk  clock.Clock
	virt *clock.Virtual // nil = wall scheduling

	mu       sync.Mutex
	rng      *rand.Rand
	nodes    map[string]*node
	order    []string // node IDs, sorted: deterministic fan-out order
	links    map[linkKey]Link
	linkBusy map[linkKey]time.Time // instants (on clk) links free up
	def      Link
	mtu      int
	depth    int
	closed   bool

	// The wall scheduler's delayed deliveries (see queueLocked).
	due   []dueDelivery // min-heap on (at, seq)
	seq   uint64        // schedule order, the tiebreak for equal deadlines
	timer *time.Timer   // armed for the head; nil until the first delayed send
	quit  chan struct{} // closed by Close to stop the dispatcher

	// The virtual scheduler's scratch for one send's fan-out (see
	// sendAll), reused under mu: the clock copies the delays, the
	// recipients are cloned into the send's fanout record.
	vdsts   []*node
	vdelays []time.Duration

	// trace is read on every delivery, so it lives outside mu: a send's
	// fan-out holds mu, and its deliveries must not queue behind it for
	// a hook that is usually nil.
	trace atomic.Pointer[func(TraceEvent)]

	wg sync.WaitGroup // the dispatcher
}

// TraceKind labels one network trace event.
type TraceKind uint8

// Trace event kinds.
const (
	TraceDeliver  TraceKind = iota // packet handed to the recipient
	TraceDrop                      // lost on the link (loss or partition)
	TraceOverflow                  // recipient inbox full
)

func (k TraceKind) String() string {
	switch k {
	case TraceDeliver:
		return "deliver"
	case TraceDrop:
		return "drop"
	case TraceOverflow:
		return "overflow"
	}
	return "trace(?)"
}

// TraceEvent describes one network-level event, stamped on the
// network's clock.  The determinism test hashes the stream; scenario
// loss curves count it; the frame-integrity harness
// (transporttest.Integrity) holds Data to what it was at first sight.
type TraceEvent struct {
	AtNS    int64 // UnixNano on the network's clock
	From    string
	To      string
	Kind    TraceKind
	Size    int
	Unicast bool
	// Data is the frame itself — the slice the recipient was (or would
	// have been) handed, not a copy.  Read-only, like Packet.Data.
	Data []byte
}

// SetTrace installs a hook that observes every delivery, drop and
// overflow (nil removes it); it may be called while traffic flows.
// The hook runs on whichever goroutine delivers — the clock's driver
// on a DESNet, senders and the dispatcher concurrently on a SimNet —
// or on the sender's for drops decided at send time, and must not call
// back into the network.
func (n *engine) SetTrace(f func(TraceEvent)) {
	if f == nil {
		n.trace.Store(nil)
		return
	}
	n.trace.Store(&f)
}

type linkKey struct{ from, to string }

// init fills in a zero engine.  Zero seed, mtu and depth select the
// documented defaults (1, 64 KiB, 1024).
func (n *engine) init(seed int64, def Link, mtu, depth int, virt *clock.Virtual) {
	if seed == 0 {
		seed = 1
	}
	if mtu <= 0 {
		mtu = 64 << 10
	}
	if depth <= 0 {
		depth = 1024
	}
	n.clk, n.virt = clock.Wall, virt
	if virt != nil {
		n.clk = virt
	}
	n.rng = rand.New(rand.NewSource(seed))
	n.nodes = make(map[string]*node)
	n.links = make(map[linkKey]Link)
	n.linkBusy = make(map[linkKey]time.Time)
	n.def, n.mtu, n.depth = def, mtu, depth
}

// Attach joins a node whose deliveries wait in its inbox (a mailbox)
// until Serve or a reader of Recv takes them.
func (n *engine) Attach(id string) (Conn, error) {
	return n.attach(id, nil)
}

// attach joins a node; a non-nil h makes it handler-mode (h runs
// inline for every delivered packet, and the node has no mailbox).
func (n *engine) attach(id string, h func(Packet)) (Conn, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, ok := n.nodes[id]; ok {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateID, id)
	}
	c := &node{net: n, id: id, handler: h}
	if h == nil {
		c.box = &mailbox{mu: &c.mu, depth: n.depth, wake: make(chan struct{}, 1)}
	}
	n.nodes[id] = c
	i := sort.SearchStrings(n.order, id)
	n.order = append(n.order, "")
	copy(n.order[i+1:], n.order[i:])
	n.order[i] = id
	return c, nil
}

// SetLink installs directed link characteristics between two nodes.
func (n *engine) SetLink(from, to string, l Link) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[linkKey{from, to}] = l
}

// SetLinkBoth installs the same characteristics in both directions.
func (n *engine) SetLinkBoth(a, b string, l Link) {
	n.SetLink(a, b, l)
	n.SetLink(b, a, l)
}

// Partition takes the directed links between two nodes down or up.
func (n *engine) Partition(a, b string, down bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, k := range []linkKey{{a, b}, {b, a}} {
		l := n.linkLocked(k)
		l.Down = down
		n.links[k] = l
	}
}

func (n *engine) linkLocked(k linkKey) Link {
	if l, ok := n.links[k]; ok {
		return l
	}
	return n.def
}

// NodeIDs returns the attached node IDs, sorted.
func (n *engine) NodeIDs() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]string(nil), n.order...)
}

// Stats returns delivery statistics for a node ID (zero Stats if the
// node is unknown).
func (n *engine) Stats(id string) Stats {
	n.mu.Lock()
	c, ok := n.nodes[id]
	n.mu.Unlock()
	if !ok {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Close detaches every node.  Deliveries still queued — on the wall
// scheduler's deadline queue or a virtual heap — would reach only
// closed nodes, so the queue is dropped and Close waits for nothing
// but the dispatcher goroutine to return, never for a link's delay.
func (n *engine) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.due = nil
	if n.timer != nil {
		n.timer.Stop()
		close(n.quit)
	}
	// Highest ID first, so each detach trims the tail of order.
	conns := make([]*node, 0, len(n.order))
	for i := len(n.order) - 1; i >= 0; i-- {
		conns = append(conns, n.nodes[n.order[i]])
	}
	n.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	n.wg.Wait()
}

// delivery is one packet arrival waiting in the wall scheduler's
// deadline queue, held there by value.
type delivery struct {
	dst     *node
	from    string
	data    []byte
	unicast bool
}

// Fire hands the packet to its recipient at now.
func (d *delivery) Fire(now time.Time) {
	d.dst.deliver(d.from, d.data, d.unicast, now)
}

// fanout is one send's copies on a virtual clock: item i of the batch
// is the copy to dsts[i].  The record, its recipient list and the
// clock's batch are the send's only allocations, whatever its fan-out,
// and all of them are garbage once the last copy has fired.
type fanout struct {
	from    string
	data    []byte
	unicast bool
	dsts    []*node
}

// FireItem implements clock.BatchEvent.
func (f *fanout) FireItem(i int, now time.Time) {
	f.dsts[i].deliver(f.from, f.data, f.unicast, now)
}

// dueDelivery is one entry of the wall scheduler's deadline queue.
type dueDelivery struct {
	at  time.Time // deadline on clk
	seq uint64
	delivery
}

func (a *dueDelivery) before(b *dueDelivery) bool {
	if !a.at.Equal(b.at) {
		return a.at.Before(b.at)
	}
	return a.seq < b.seq
}

// queueLocked puts d on the deadline queue, due at at, and re-arms the
// timer if d became the head.  The first call creates the timer and
// starts the dispatcher.  The heap is sifted by hand: container/heap's
// Push(any) would box every entry.  Caller holds mu.
func (n *engine) queueLocked(at, now time.Time, d delivery) {
	n.seq++
	n.due = append(n.due, dueDelivery{at: at, seq: n.seq, delivery: d})
	h, i := n.due, len(n.due)-1
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].before(&h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	if i > 0 {
		return
	}
	if n.timer == nil {
		n.timer = clock.Wall.NewTimer(at.Sub(now))
		n.quit = make(chan struct{})
		n.wg.Add(1)
		go n.dispatch(n.timer.C, n.quit)
		return
	}
	n.timer.Reset(at.Sub(now))
}

// popLocked removes and returns the head of the deadline queue.
// Caller holds mu.
func (n *engine) popLocked() delivery {
	h := n.due
	d, last := h[0].delivery, len(h)-1
	h[0], h[last] = h[last], dueDelivery{}
	h = h[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	n.due = h
	return d
}

// dispatch is the wall scheduler's one goroutine.  On each wake it pops
// every delivery now due, re-arms the timer for the new head and then
// delivers, in deadline order, with no lock held.  A wake means "look
// at the head", never "the head is due": under the go 1.22 timer
// semantics this module builds with, a Reset can leave a stale tick.
func (n *engine) dispatch(tick <-chan time.Time, quit <-chan struct{}) {
	defer n.wg.Done()
	var batch []delivery
	for {
		select {
		case <-quit:
			return
		case <-tick:
		}
		n.mu.Lock()
		now := n.clk.Now()
		for len(n.due) > 0 && !n.due[0].at.After(now) {
			batch = append(batch, n.popLocked())
		}
		if len(n.due) > 0 {
			n.timer.Reset(n.due[0].at.Sub(now))
		}
		n.mu.Unlock()
		for i := range batch {
			batch[i].Fire(now)
			batch[i] = delivery{}
		}
		batch = batch[:0]
	}
}

// sendAll applies the link model to one frame from src — toward the
// node named to for a unicast, else (to == "") toward every other node
// in sorted order — and schedules the resulting deliveries, every one
// of them holding data itself: nobody writes those bytes again.  It
// reports false for a unicast to an unknown node.  Caller holds no
// locks.
func (n *engine) sendAll(src *node, to string, data []byte) bool {
	unicast := to != ""
	// What has to wait for the lock to drop: drop traces, and the wall
	// scheduler's synchronous deliveries.
	type pending struct {
		dst  *node
		drop bool
	}
	var buf [8]pending
	after := buf[:0]

	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return true
	}
	dsts := n.order
	if unicast {
		if _, ok := n.nodes[to]; !ok {
			n.mu.Unlock()
			return false
		}
		dsts = []string{to}
	}
	trace := n.trace.Load()
	now := n.clk.Now()
	for _, id := range dsts {
		if id == src.id && !unicast {
			continue
		}
		dst := n.nodes[id]
		key := linkKey{src.id, id}
		l := n.linkLocked(key)
		plan := planLink(l, len(data), n.rng, n.linkBusy[key], now)
		if l.BandwidthBps > 0 {
			n.linkBusy[key] = plan.busy
		}
		if plan.drop {
			dst.mu.Lock()
			dst.stats.Dropped++
			dst.mu.Unlock()
			if trace != nil {
				after = append(after, pending{dst, true})
			}
			continue
		}
		for i := 0; i < plan.copies; i++ {
			switch {
			case n.virt != nil:
				// Every virtual delivery goes through the heap —
				// zero-delay links included — so arrival order is always
				// (instant, schedule order), never a recursion into the
				// recipient mid-send.  The copies are collected here and
				// scheduled as one batch below.
				n.vdsts = append(n.vdsts, dst)
				n.vdelays = append(n.vdelays, plan.delay)
			case plan.delay <= 0:
				// Zero-delay wall links deliver synchronously,
				// preserving per-sender FIFO order like a real loopback;
				// inboxes are non-blocking so this cannot deadlock.
				after = append(after, pending{dst, false})
			default:
				n.queueLocked(now.Add(plan.delay), now, delivery{dst: dst, from: src.id, data: data, unicast: unicast})
			}
		}
	}
	if len(n.vdsts) > 0 {
		n.virt.ScheduleBatch(n.vdelays, &fanout{from: src.id, data: data, unicast: unicast, dsts: slices.Clone(n.vdsts)})
		clear(n.vdsts) // no detached node stays reachable from the scratch
		n.vdsts, n.vdelays = n.vdsts[:0], n.vdelays[:0]
	}
	n.mu.Unlock()

	for _, p := range after {
		if p.drop {
			(*trace)(TraceEvent{AtNS: now.UnixNano(), From: src.id, To: p.dst.id, Kind: TraceDrop,
				Size: len(data), Unicast: unicast, Data: data})
		} else {
			p.dst.deliver(src.id, data, unicast, n.clk.Now())
		}
	}
	return true
}

// node is one attachment to the engine.
type node struct {
	net     *engine
	id      string
	handler func(Packet) // nil = its arrivals wait in box
	box     *mailbox     // nil = handler mode

	mu     sync.Mutex
	closed bool
	stats  Stats
}

// ID implements Conn.
func (c *node) ID() string { return c.id }

// Clock implements Conn: the network's clock.
func (c *node) Clock() clock.Clock { return c.net.clk }

// Recv implements Conn.  A handler-mode node's packets go to its
// handler, and so do a node's that Serve runs inline: for both it
// returns nil.  Call Serve before anything receives on the node.
func (c *node) Recv() <-chan Packet { return c.box.recv() }

func (c *node) mailbox() *mailbox { return c.box }

// Multicast implements Conn: a private copy of frame, given.
func (c *node) Multicast(frame []byte) error { return c.Give("", bytes.Clone(frame)) }

// Unicast implements Conn: a private copy of frame, given.
func (c *node) Unicast(to string, frame []byte) error {
	if to == "" {
		return fmt.Errorf("%w: %q", ErrUnknownNode, to) // "" is Give's name for the group
	}
	return c.Give(to, bytes.Clone(frame))
}

// Give implements Conn.  It is the one send path: the deliveries it
// schedules all hold frame itself.
func (c *node) Give(to string, frame []byte) error {
	if err := c.checkSend(frame); err != nil {
		return err
	}
	if !c.net.sendAll(c, to, frame) {
		return fmt.Errorf("%w: %q", ErrUnknownNode, to)
	}
	return nil
}

func (c *node) checkSend(frame []byte) error {
	if len(frame) > c.net.mtu {
		return fmt.Errorf("%w: %d > %d", ErrFrameSize, len(frame), c.net.mtu)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	c.stats.Sent++
	return nil
}

// deliver hands a packet arriving at instant at to the node: into its
// mailbox (dropping on overflow) or, after the bookkeeping, to the
// handler.
func (c *node) deliver(from string, data []byte, unicast bool, at time.Time) {
	p := Packet{From: from, Data: data, Unicast: unicast, At: at}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	h := c.handler
	kind := TraceDeliver
	if h != nil || c.box.putLocked(p) {
		c.stats.Delivered++
		c.stats.Bytes += uint64(len(p.Data))
	} else {
		c.stats.Overflow++
		kind = TraceOverflow
	}
	c.mu.Unlock()
	if trace := c.net.trace.Load(); trace != nil {
		(*trace)(TraceEvent{AtNS: p.At.UnixNano(), From: p.From, To: c.id,
			Kind: kind, Size: len(p.Data), Unicast: p.Unicast, Data: p.Data})
	}
	if h != nil {
		h(p)
	}
}

// Close implements Conn.
func (c *node) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.box.closeLocked()
	c.mu.Unlock()

	n := c.net
	n.mu.Lock()
	delete(n.nodes, c.id)
	if i := sort.SearchStrings(n.order, c.id); i < len(n.order) && n.order[i] == c.id {
		n.order = append(n.order[:i], n.order[i+1:]...)
	}
	// Purge the detached node's serialization state: linkBusy entries
	// are keyed per directed pair and would otherwise accumulate
	// forever under attach/detach churn.
	for k := range n.linkBusy {
		if k.from == c.id || k.to == c.id {
			delete(n.linkBusy, k)
		}
	}
	n.mu.Unlock()
	return nil
}
