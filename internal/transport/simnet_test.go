package transport

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// netDrivers is the conformance table: each row opens the engine
// under one scheduler and says how a test lets network time go by.
var netDrivers = []struct {
	name string
	open func(SimNetConfig) (n *engine, pass func(time.Duration))
}{
	{"wall", func(cfg SimNetConfig) (*engine, func(time.Duration)) {
		return &NewSimNet(cfg).engine, time.Sleep
	}},
	{"virtual", func(cfg SimNetConfig) (*engine, func(time.Duration)) {
		n := NewDESNet(DESNetConfig{Seed: cfg.Seed, DefaultLink: cfg.DefaultLink,
			MTU: cfg.MTU, InboxDepth: cfg.InboxDepth})
		return &n.engine, func(d time.Duration) { n.virt.Advance(d) }
	}},
}

// testNet is the engine under one driver.
type testNet struct {
	*engine
	t    *testing.T
	pass func(time.Duration)
}

// onEachDriver runs f as one subtest per driver.  The TestSimNet*
// tests built on it are the conformance suite: whatever they assert
// holds for SimNet and DESNet alike.  (They keep the names they had
// when they covered the wall-clock simulator only.)
func onEachDriver(t *testing.T, cfg SimNetConfig, f func(t *testing.T, n *testNet)) {
	for _, d := range netDrivers {
		t.Run(d.name, func(t *testing.T) {
			n := &testNet{t: t}
			n.engine, n.pass = d.open(cfg)
			defer n.Close()
			f(t, n)
		})
	}
}

func (n *testNet) attach(ids ...string) []Conn {
	n.t.Helper()
	conns := make([]Conn, len(ids))
	for i, id := range ids {
		c, err := n.Attach(id)
		if err != nil {
			n.t.Fatal(err)
		}
		conns[i] = c
	}
	return conns
}

// collect reads count packets from c's inbox, letting up to within of
// network time go by.
func (n *testNet) collect(c Conn, count int, within time.Duration) []Packet {
	n.t.Helper()
	var out []Packet
	for waited := time.Duration(0); ; waited += time.Millisecond {
		for len(out) < count && len(c.Recv()) > 0 {
			out = append(out, <-c.Recv())
		}
		if len(out) == count {
			return out
		}
		if waited >= within {
			n.t.Fatalf("%s received %d of %d packets within %v", c.ID(), len(out), count, within)
		}
		n.pass(time.Millisecond)
	}
}

// quiet lets d of network time go by and requires c's inbox to stay
// empty.
func (n *testNet) quiet(c Conn, d time.Duration) {
	n.t.Helper()
	n.pass(d)
	if len(c.Recv()) > 0 {
		n.t.Fatalf("%s received an unexpected packet: %+v", c.ID(), <-c.Recv())
	}
}

// collect drains up to n packets from ch or times out (wall clock).
func collect(t *testing.T, ch <-chan Packet, n int, timeout time.Duration) []Packet {
	t.Helper()
	var out []Packet
	deadline := time.After(timeout)
	for len(out) < n {
		select {
		case p, ok := <-ch:
			if !ok {
				return out
			}
			out = append(out, p)
		case <-deadline:
			t.Fatalf("timeout: received %d of %d packets", len(out), n)
		}
	}
	return out
}

func TestSimNetAttachErrors(t *testing.T) {
	onEachDriver(t, SimNetConfig{}, func(t *testing.T, n *testNet) {
		n.attach("b", "a")
		if _, err := n.Attach("a"); !errors.Is(err, ErrDuplicateID) {
			t.Errorf("duplicate attach: %v", err)
		}
		if ids := n.NodeIDs(); len(ids) != 2 || ids[0] != "a" || ids[1] != "b" {
			t.Errorf("NodeIDs = %v, want sorted [a b]", ids)
		}
		n.Close()
		if _, err := n.Attach("c"); !errors.Is(err, ErrClosed) {
			t.Errorf("attach after close: %v", err)
		}
	})
}

func TestSimNetMTU(t *testing.T) {
	onEachDriver(t, SimNetConfig{MTU: 100}, func(t *testing.T, n *testNet) {
		a := n.attach("a", "b")[0]
		if err := a.Multicast(make([]byte, 101)); !errors.Is(err, ErrFrameSize) {
			t.Errorf("oversize frame: %v", err)
		}
		if err := a.Multicast(make([]byte, 100)); err != nil {
			t.Errorf("max-size frame: %v", err)
		}
	})
}

func TestSimNetMulticast(t *testing.T) {
	onEachDriver(t, SimNetConfig{}, func(t *testing.T, n *testNet) {
		c := n.attach("a", "b", "c")
		if err := c[0].Multicast([]byte("hello")); err != nil {
			t.Fatal(err)
		}
		for _, conn := range c[1:] {
			p := n.collect(conn, 1, time.Second)[0]
			if p.From != "a" || string(p.Data) != "hello" || p.Unicast {
				t.Errorf("%s got %+v", conn.ID(), p)
			}
		}
		// The sender must not receive its own multicast.
		n.quiet(c[0], 20*time.Millisecond)
	})
}

func TestSimNetUnicast(t *testing.T) {
	onEachDriver(t, SimNetConfig{}, func(t *testing.T, n *testNet) {
		c := n.attach("a", "b", "c")
		if err := c[0].Unicast("b", []byte("direct")); err != nil {
			t.Fatal(err)
		}
		p := n.collect(c[1], 1, time.Second)[0]
		if !p.Unicast || p.From != "a" || string(p.Data) != "direct" {
			t.Errorf("unicast packet: %+v", p)
		}
		n.quiet(c[2], 20*time.Millisecond)
		if err := c[0].Unicast("nobody", []byte("x")); !errors.Is(err, ErrUnknownNode) {
			t.Errorf("unknown dest: %v", err)
		}
	})
}

func TestSimNetLoss(t *testing.T) {
	onEachDriver(t, SimNetConfig{Seed: 42}, func(t *testing.T, n *testNet) {
		c := n.attach("a", "b")
		n.SetLink("a", "b", Link{Loss: 1.0})
		for i := 0; i < 10; i++ {
			if err := c[0].Unicast("b", []byte("gone")); err != nil {
				t.Fatal(err)
			}
		}
		n.quiet(c[1], 30*time.Millisecond)
		if st := n.Stats("b"); st.Dropped != 10 {
			t.Errorf("dropped = %d, want 10", st.Dropped)
		}

		// Partial loss: roughly half arrive.
		n.SetLink("a", "b", Link{Loss: 0.5})
		const sent = 200
		for i := 0; i < sent; i++ {
			c[0].Unicast("b", []byte("maybe"))
		}
		n.pass(50 * time.Millisecond)
		st := n.Stats("b")
		if got := int(st.Delivered); got < sent/4 || got > sent*3/4 {
			t.Errorf("delivered %d of %d at 50%% loss", got, sent)
		}
		if st.Delivered+st.Dropped != sent+10 {
			t.Errorf("delivered %d + dropped %d != %d sent", st.Delivered, st.Dropped, sent+10)
		}
	})
}

func TestSimNetDuplicate(t *testing.T) {
	onEachDriver(t, SimNetConfig{Seed: 3}, func(t *testing.T, n *testNet) {
		c := n.attach("a", "b")
		n.SetLink("a", "b", Link{Duplicate: 1.0})
		c[0].Unicast("b", []byte("twice"))
		pkts := n.collect(c[1], 2, time.Second)
		if string(pkts[0].Data) != "twice" || string(pkts[1].Data) != "twice" {
			t.Errorf("duplicate contents: %q, %q", pkts[0].Data, pkts[1].Data)
		}
		n.quiet(c[1], 20*time.Millisecond)
	})
}

func TestSimNetPartition(t *testing.T) {
	onEachDriver(t, SimNetConfig{}, func(t *testing.T, n *testNet) {
		c := n.attach("a", "b")
		n.Partition("a", "b", true)
		c[0].Unicast("b", []byte("blocked"))
		c[1].Unicast("a", []byte("blocked"))
		n.quiet(c[1], 30*time.Millisecond)
		n.quiet(c[0], 0)
		if st := n.Stats("b"); st.Dropped != 1 {
			t.Errorf("dropped across partition = %d, want 1", st.Dropped)
		}

		n.Partition("a", "b", false)
		c[0].Unicast("b", []byte("healed"))
		if p := n.collect(c[1], 1, time.Second)[0]; string(p.Data) != "healed" {
			t.Errorf("post-heal packet: %q", p.Data)
		}
	})
}

func TestSimNetStatsAndOverflow(t *testing.T) {
	onEachDriver(t, SimNetConfig{InboxDepth: 2}, func(t *testing.T, n *testNet) {
		a := n.attach("a", "b")[0]
		for i := 0; i < 10; i++ {
			a.Unicast("b", []byte{byte(i)})
		}
		n.pass(50 * time.Millisecond)
		want := Stats{Delivered: 2, Overflow: 8, Bytes: 2}
		if st := n.Stats("b"); st != want {
			t.Errorf("b stats = %+v, want %+v (inbox depth 2)", st, want)
		}
		if sa := n.Stats("a"); sa.Sent != 10 {
			t.Errorf("a sent = %d, want 10", sa.Sent)
		}
		if unknown := n.Stats("zzz"); unknown != (Stats{}) {
			t.Errorf("unknown node stats = %+v", unknown)
		}
	})
}

func TestSimNetCloseSemantics(t *testing.T) {
	onEachDriver(t, SimNetConfig{}, func(t *testing.T, n *testNet) {
		c := n.attach("a", "b")
		a, b := c[0], c[1]
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		if err := a.Close(); err != nil {
			t.Errorf("double close: %v", err)
		}
		if err := a.Multicast([]byte("x")); !errors.Is(err, ErrClosed) {
			t.Errorf("send after close: %v", err)
		}
		if err := b.Unicast("a", []byte("x")); !errors.Is(err, ErrUnknownNode) {
			t.Errorf("send to detached node: %v", err)
		}
		if _, ok := <-a.Recv(); ok {
			t.Error("recv channel should be closed")
		}
		if ids := n.NodeIDs(); len(ids) != 1 || ids[0] != "b" {
			t.Errorf("NodeIDs after detach = %v", ids)
		}
		n.Close()
		n.Close() // idempotent
		if _, ok := <-b.Recv(); ok {
			t.Error("net close should close every inbox")
		}
	})
}

// TestSimNetBandwidthQueueing: back-to-back sends queue behind each
// other on a bandwidth-limited link.
func TestSimNetBandwidthQueueing(t *testing.T) {
	onEachDriver(t, SimNetConfig{Seed: 7}, func(t *testing.T, n *testNet) {
		c := n.attach("a", "b")
		// 400 kbit/s: a 1000-byte frame serializes in 20ms.
		const ser = 20 * time.Millisecond
		n.SetLink("a", "b", Link{BandwidthBps: 400_000})
		frame := make([]byte, 1000)
		start := n.clk.Now()
		for i := 0; i < 3; i++ {
			if err := c[0].Unicast("b", frame); err != nil {
				t.Fatal(err)
			}
		}
		for i, p := range n.collect(c[1], 3, 3*time.Second) {
			got, want := p.At.Sub(start), time.Duration(i+1)*ser
			// Timers never fire early; only virtual time is exact.
			if got < want || (n.virt != nil && got != want) {
				t.Errorf("frame %d arrived after %v, want %v", i, got, want)
			}
		}
	})
}

func TestSimNetManyNodesBroadcastStress(t *testing.T) {
	onEachDriver(t, SimNetConfig{Seed: 11}, func(t *testing.T, n *testNet) {
		const nodes, rounds = 20, 25
		ids := make([]string, nodes)
		for i := range ids {
			ids[i] = fmt.Sprintf("node-%02d", i)
		}
		conns := n.attach(ids...)
		for r := 0; r < rounds; r++ {
			if err := conns[r%nodes].Multicast([]byte{byte(r)}); err != nil {
				t.Fatal(err)
			}
		}
		// Every node receives every multicast it did not send.
		for i, c := range conns {
			mine := 0
			for r := i; r < rounds; r += nodes {
				mine++
			}
			n.collect(c, rounds-mine, 3*time.Second)
			n.quiet(c, 0)
		}
	})
}

// TestSimNetLinkBusyPurgedOnClose is the leak regression: the
// per-directed-pair serialization map must not accumulate entries for
// detached nodes under attach/detach churn.
func TestSimNetLinkBusyPurgedOnClose(t *testing.T) {
	cfg := SimNetConfig{
		Seed:        3,
		DefaultLink: Link{BandwidthBps: 1e6}, // finite bandwidth populates linkBusy
	}
	onEachDriver(t, cfg, func(t *testing.T, n *testNet) {
		hub := n.attach("hub")[0]
		for round := 0; round < 5; round++ {
			id := fmt.Sprintf("churn-%d", round)
			c := n.attach(id)[0]
			if err := c.Multicast([]byte("payload")); err != nil {
				t.Fatal(err)
			}
			if err := hub.Unicast(id, []byte("reply")); err != nil {
				t.Fatal(err)
			}
			n.mu.Lock()
			populated := len(n.linkBusy)
			n.mu.Unlock()
			if populated != 2 {
				t.Fatalf("round %d: linkBusy has %d entries, want 2 (hub<->%s)", round, populated, id)
			}
			c.Close()
			// Hub has no one left to talk to, so: nothing.
			n.mu.Lock()
			left := len(n.linkBusy)
			n.mu.Unlock()
			if left != 0 {
				t.Errorf("round %d: linkBusy retains %d entries after %s detached", round, left, id)
			}
		}
	})
}

// TestSimNetFixedDelayFIFO: a jitter-free delayed link delivers one
// sender's frames in the order sent, with deliveries falling due while
// sending goes on.  (On the wall scheduler it failed while every
// delayed frame fired on a timer of its own: at GOMAXPROCS=2 about one
// frame in eight arrived right behind a later one.)
func TestSimNetFixedDelayFIFO(t *testing.T) {
	const frames = 4000
	onEachDriver(t, SimNetConfig{InboxDepth: frames}, func(t *testing.T, n *testNet) {
		c := n.attach("a", "b")
		n.SetLink("a", "b", Link{Delay: 2 * time.Millisecond})
		for i := 0; i < frames; i++ {
			if err := c[0].Unicast("b", []byte{byte(i >> 8), byte(i)}); err != nil {
				t.Fatal(err)
			}
			if i%50 == 49 {
				n.pass(100 * time.Microsecond)
			}
		}
		inverted, prev := 0, -1
		for _, p := range n.collect(c[1], frames, 5*time.Second) {
			i := int(p.Data[0])<<8 | int(p.Data[1])
			if i < prev {
				inverted++
			}
			prev = i
		}
		if inverted > 0 {
			t.Errorf("%d of %d frames arrived right behind a frame sent after them on a fixed-delay link", inverted, frames)
		}
	})
}

// The tests below pin what only the wall scheduler does.

func TestSimNetDelayAndJitter(t *testing.T) {
	net := NewSimNet(SimNetConfig{Seed: 7})
	defer net.Close()
	a, _ := net.Attach("a")
	b, _ := net.Attach("b")
	net.SetLink("a", "b", Link{Delay: 30 * time.Millisecond, Jitter: 10 * time.Millisecond})

	start := time.Now()
	a.Unicast("b", []byte("slow"))
	collect(t, b.Recv(), 1, time.Second)
	elapsed := time.Since(start)
	if elapsed < 30*time.Millisecond {
		t.Errorf("delivery after %v, want >= 30ms", elapsed)
	}
	if elapsed > 500*time.Millisecond {
		t.Errorf("delivery after %v, far beyond delay+jitter", elapsed)
	}
}

// TestSimNetCloseWithFramesInFlight: Close drops what is still queued
// rather than waiting out the links' delay, delivers none of it later,
// and leaves no goroutine behind.
func TestSimNetCloseWithFramesInFlight(t *testing.T) {
	const delay = time.Second
	baseline := runtime.NumGoroutine()
	net := NewSimNet(SimNetConfig{DefaultLink: Link{Delay: delay}})
	var delivered atomic.Int64
	net.SetTrace(func(ev TraceEvent) {
		if ev.Kind == TraceDeliver {
			delivered.Add(1)
		}
	})
	conns := make([]Conn, 4)
	for i := range conns {
		conns[i], _ = net.Attach(fmt.Sprintf("n%d", i))
	}
	start := time.Now()
	for i := 0; i < 100; i++ {
		if err := conns[i%len(conns)].Multicast([]byte("late")); err != nil {
			t.Fatal(err)
		}
	}
	net.Close()
	atClose := delivered.Load()
	if took := time.Since(start); took > delay/5 {
		t.Errorf("Close with frames in flight returned after %v, want well under the %v delay", took, delay)
	}
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the network", runtime.NumGoroutine(), baseline)
		}
	}
	time.Sleep(time.Until(start.Add(delay + delay/5)))
	if got := delivered.Load() - atClose; got != 0 {
		t.Errorf("%d frames delivered after Close returned", got)
	}
}

// TestSimNetZeroDelaySynchronousFIFO: on a zero-delay link the frame
// is in the recipient's inbox by the time the send returns, so one
// sender's frames arrive in the order sent.
func TestSimNetZeroDelaySynchronousFIFO(t *testing.T) {
	net := NewSimNet(SimNetConfig{})
	defer net.Close()
	a, _ := net.Attach("a")
	b, _ := net.Attach("b")
	const frames = 100
	for i := 0; i < frames; i++ {
		if i%2 == 0 {
			a.Multicast([]byte{byte(i)})
		} else {
			a.Unicast("b", []byte{byte(i)})
		}
		if got := len(b.Recv()); got != i+1 {
			t.Fatalf("after send %d returned the inbox holds %d frames", i, got)
		}
	}
	for i := 0; i < frames; i++ {
		if p := <-b.Recv(); p.Data[0] != byte(i) {
			t.Fatalf("frame %d arrived in position %d", p.Data[0], i)
		}
	}
}

// TestSimNetSeededFanOutReproducible: fan-out walks recipients in
// sorted-ID order, so one goroutine's seeded loss/jitter/duplicate
// draws land on the same recipients every run.  (It failed while
// Multicast ranged over the node map.)
func TestSimNetSeededFanOutReproducible(t *testing.T) {
	burst := func() map[string]Stats {
		net := NewSimNet(SimNetConfig{Seed: 99, DefaultLink: Link{
			Loss: 0.3, Duplicate: 0.2, Jitter: 2 * time.Millisecond,
		}})
		defer net.Close()
		conns := make([]Conn, 8)
		for i := range conns {
			conns[i], _ = net.Attach(fmt.Sprintf("n%d", i))
		}
		for round := 0; round < 40; round++ {
			if err := conns[round%len(conns)].Multicast([]byte("burst")); err != nil {
				t.Fatal(err)
			}
		}
		net.drainer()() // jittered deliveries still queued
		stats := make(map[string]Stats)
		for _, id := range net.NodeIDs() {
			stats[id] = net.Stats(id)
		}
		return stats
	}
	first, second := burst(), burst()
	for id, st := range first {
		if st.Dropped == 0 || st.Delivered == 0 {
			t.Errorf("%s: %+v — the burst should both drop and deliver", id, st)
		}
		if second[id] != st {
			t.Errorf("%s: same seed, different fate: %+v then %+v", id, st, second[id])
		}
	}
}
