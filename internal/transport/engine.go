package transport

import (
	"bytes"
	"fmt"
	"math/rand"
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
// The two exported faces differ only in the scheduling step at the
// bottom of sendAll.  With virt set, every delivery — zero-delay
// included — is a clock.Event on the virtual heap and fires on
// whichever goroutine drives the clock.  With virt nil, zero-delay
// deliveries happen synchronously in the sender's goroutine once the
// engine lock is released, and delayed ones ride wall-clock timers
// that Close waits for.
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

	// trace is read on every delivery, so it lives outside mu: a send's
	// fan-out holds mu, and its deliveries must not queue behind it for
	// a hook that is usually nil.
	trace atomic.Pointer[func(TraceEvent)]

	wg sync.WaitGroup // wall-clock timers in flight
}

// TraceKind labels one network trace event.
type TraceKind uint8

// Trace event kinds.
const (
	TraceDeliver  TraceKind = iota // packet handed to the recipient
	TraceDrop                      // lost on the link (loss or partition)
	TraceOverflow                  // recipient inbox full (channel mode)
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
// on a DESNet, senders and timers concurrently on a SimNet — or on the
// sender's for drops decided at send time, and must not call back into
// the network.
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

// Attach joins a channel-mode node: deliveries land in an inbox the
// node's own goroutine drains via Recv.
func (n *engine) Attach(id string) (Conn, error) {
	return n.attach(id, nil)
}

// attach joins a node; a non-nil h makes it handler-mode (h runs
// inline for every delivered packet, and the node has no inbox).
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
		c.inbox = make(chan Packet, n.depth)
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

// Close detaches every node and waits for wall-clock timers still in
// flight.  Deliveries pending on a virtual heap become no-ops.
func (n *engine) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
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

// delivery is one packet arrival scheduled on the virtual heap — a
// clock.Event implemented directly so each costs a single allocation.
type delivery struct {
	dst     *node
	from    string
	data    []byte
	unicast bool
}

// Fire implements clock.Event.
func (d *delivery) Fire(now time.Time) {
	d.dst.deliver(d.from, d.data, d.unicast, now)
}

// sendAll applies the link model to one frame from src — toward the
// node named to for a unicast, else (to == "") toward every other node
// in sorted order — and schedules the resulting deliveries, every one
// of them holding data itself: nobody writes those bytes again.  It
// reports false for a unicast to an unknown node.  Caller holds no
// locks.
//
// data is never reassigned here: the wall scheduler's timer closure
// captures it, and a second assignment would make that a capture by
// reference — the variable moved to the heap on every call.
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
				// recipient mid-send.
				n.virt.Schedule(plan.delay, &delivery{dst: dst, from: src.id, data: data, unicast: unicast})
			case plan.delay <= 0:
				// Zero-delay wall links deliver synchronously,
				// preserving per-sender FIFO order like a real loopback;
				// inboxes are non-blocking so this cannot deadlock.
				after = append(after, pending{dst, false})
			default:
				n.wg.Add(1)
				n.clk.AfterFunc(plan.delay, func() {
					defer n.wg.Done()
					dst.deliver(src.id, data, unicast, n.clk.Now())
				})
			}
		}
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
	handler func(Packet) // nil = channel mode
	inbox   chan Packet  // nil = handler mode

	mu     sync.Mutex
	closed bool
	stats  Stats
}

// ID implements Conn.
func (c *node) ID() string { return c.id }

// Recv implements Conn.  Handler-mode nodes return nil: their packets
// go to the handler, and ranging over a nil channel blocks forever —
// do not start a receive loop on a handler-mode Conn.
func (c *node) Recv() <-chan Packet { return c.inbox }

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

// deliver hands a packet arriving at instant at to the node: into the
// inbox (dropping on overflow) or, after the bookkeeping, to the
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
	if h != nil {
		c.stats.Delivered++
		c.stats.Bytes += uint64(len(p.Data))
	} else {
		select {
		case c.inbox <- p:
			c.stats.Delivered++
			c.stats.Bytes += uint64(len(p.Data))
		default:
			c.stats.Overflow++
			kind = TraceOverflow
		}
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
	if c.inbox != nil {
		close(c.inbox)
	}
	return nil
}
