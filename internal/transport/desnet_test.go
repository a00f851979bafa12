package transport

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestDESNetHandlerDelivery(t *testing.T) {
	n := NewDESNet(DESNetConfig{DefaultLink: Link{Delay: 5 * time.Millisecond}})
	var got []Packet
	a, err := n.AttachHandler("a", func(p Packet) { got = append(got, p) })
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Attach("b")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Unicast("a", []byte("hi")); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatal("delivery before the clock advanced")
	}
	n.virt.Advance(4 * time.Millisecond)
	if len(got) != 0 {
		t.Fatal("delivery before the link delay elapsed")
	}
	n.virt.Advance(2 * time.Millisecond)
	if len(got) != 1 || string(got[0].Data) != "hi" || got[0].From != "b" || !got[0].Unicast {
		t.Fatalf("got %+v", got)
	}
	wantAt := n.virt.Now().Add(-time.Millisecond)
	if !got[0].At.Equal(wantAt) {
		t.Fatalf("arrival stamped %v, want %v", got[0].At, wantAt)
	}
	if s := n.Stats("a"); s.Delivered != 1 || s.Dropped != 0 {
		t.Fatalf("stats %+v", s)
	}
	if s := n.Stats("b"); s.Sent != 1 {
		t.Fatalf("sender stats %+v", s)
	}
	_ = a
}

// TestDESNetMulticastOrderAndSharing: under either scheduler a
// multicast reaches recipients in sorted-ID order, and they all read
// one private copy of the frame — the sender may reuse its buffer as
// soon as the send returns.
func TestDESNetMulticastOrderAndSharing(t *testing.T) {
	onEachDriver(t, SimNetConfig{}, func(t *testing.T, n *testNet) {
		var order []string
		var datas [][]byte
		for _, id := range []string{"w3", "w1", "w2"} {
			if _, err := n.engine.attach(id, func(p Packet) {
				order = append(order, id)
				datas = append(datas, p.Data)
			}); err != nil {
				t.Fatal(err)
			}
		}
		src := n.attach("src")[0]
		frame := []byte("x")
		if err := src.Multicast(frame); err != nil {
			t.Fatal(err)
		}
		frame[0] = 'y'
		n.pass(time.Millisecond)
		if len(order) != 3 || order[0] != "w1" || order[1] != "w2" || order[2] != "w3" {
			t.Fatalf("zero-delay multicast arrival order = %v, want sorted IDs", order)
		}
		for i, d := range datas {
			if string(d) != "x" {
				t.Errorf("%s read %q after the sender reused its buffer", order[i], d)
			}
		}
		// One shared copy for all recipients.
		if &datas[0][0] != &datas[1][0] || &datas[1][0] != &datas[2][0] {
			t.Error("multicast should share one frame copy across recipients")
		}
	})
}

// TestDESNetChannelModeCompat: a channel-mode inbox on the virtual
// scheduler fills only when the clock is driven — even over a
// zero-delay link, where the wall scheduler delivers inside the send.
func TestDESNetChannelModeCompat(t *testing.T) {
	n := NewDESNet(DESNetConfig{})
	rx, err := n.Attach("rx")
	if err != nil {
		t.Fatal(err)
	}
	tx, err := n.Attach("tx")
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Multicast([]byte("ch")); err != nil {
		t.Fatal(err)
	}
	if len(rx.Recv()) != 0 {
		t.Fatal("delivery before the clock was driven")
	}
	n.virt.Advance(0)
	select {
	case p := <-rx.Recv():
		if string(p.Data) != "ch" || p.From != "tx" {
			t.Fatalf("got %+v", p)
		}
	default:
		t.Fatal("channel-mode inbox empty after advance")
	}
	if err := rx.Close(); err != nil {
		t.Fatal(err)
	}
	if _, open := <-rx.Recv(); open {
		t.Fatal("inbox should close with the conn")
	}
}

// traceHash runs a small seeded scenario and hashes its trace stream.
func traceHash(seed int64) [32]byte {
	h := sha256.New()
	n := NewDESNet(DESNetConfig{Seed: seed, DefaultLink: Link{
		Delay: 2 * time.Millisecond, Jitter: 3 * time.Millisecond,
		Loss: 0.1, Duplicate: 0.05, BandwidthBps: 1e6,
	}})
	n.SetTrace(func(ev TraceEvent) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(ev.AtNS))
		h.Write(buf[:])
		fmt.Fprintf(h, "%s>%s:%d:%d:%v", ev.From, ev.To, ev.Kind, ev.Size, ev.Unicast)
	})
	conns := make([]Conn, 8)
	for i := range conns {
		id := fmt.Sprintf("n%02d", i)
		var err error
		conns[i], err = n.AttachHandler(id, func(p Packet) {})
		if err != nil {
			panic(err)
		}
	}
	for round := 0; round < 20; round++ {
		src := conns[round%len(conns)]
		_ = src.Multicast([]byte(fmt.Sprintf("round-%d-payload", round)))
		n.virt.Advance(10 * time.Millisecond)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// traceHash42 is traceHash(42) as it stood when every virtual delivery
// was its own heap entry: scheduling a send's copies as one batch must
// not move a single delivery.
const traceHash42 = "a20b76c8133f7ced310a0df485756ff85757183602056e0f1654bae3a44437fd"

func TestDESNetDeterministicTrace(t *testing.T) {
	a, b := traceHash(42), traceHash(42)
	if a != b {
		t.Fatal("same seed produced different trace streams")
	}
	if got := hex.EncodeToString(a[:]); got != traceHash42 {
		t.Fatalf("traceHash(42) = %s, pinned at %s", got, traceHash42)
	}
	if c := traceHash(43); c == a {
		t.Fatal("different seeds produced identical trace streams (rng unused?)")
	}
}

// TestDESNetTiedDeliveryOrder: deliveries fire in (instant, schedule
// order) even where everything ties.  Two senders multicast at one
// instant over jitter-free links that duplicate every frame; an event
// scheduled between the two sends falls due with them; and every
// delivery schedules a follow-up at zero delay.  The delivery log must
// equal a plain model that lists every event with its instant and
// schedule order and fires them sorted by both.
func TestDESNetTiedDeliveryOrder(t *testing.T) {
	const ms = time.Millisecond
	link := func(d time.Duration) Link { return Link{Delay: d, Duplicate: 1} }
	n := NewDESNet(DESNetConfig{DefaultLink: link(2 * ms)})
	// Two links off the common delay, so a batch's items fire out of
	// their schedule order.
	n.SetLink("a", "d0", link(3*ms))
	n.SetLink("b", "d2", link(ms))

	start := n.virt.Now()
	var log []string
	ids := []string{"a", "b", "d0", "d1", "d2"}
	conns := map[string]Conn{}
	for _, id := range ids {
		c, err := n.AttachHandler(id, func(p Packet) {
			what := fmt.Sprintf("%s<%s@%v", id, p.From, p.At.Sub(start))
			log = append(log, what)
			n.virt.ScheduleFunc(0, func(now time.Time) {
				log = append(log, fmt.Sprintf("after %s@%v", what, now.Sub(start)))
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		conns[id] = c
	}
	if err := conns["a"].Multicast([]byte("A")); err != nil {
		t.Fatal(err)
	}
	n.virt.ScheduleFunc(2*ms, func(now time.Time) {
		log = append(log, fmt.Sprintf("between@%v", now.Sub(start)))
	})
	if err := conns["b"].Multicast([]byte("B")); err != nil {
		t.Fatal(err)
	}
	n.virt.Advance(10 * ms)

	// The model: each send's copies in fan-out (sorted-ID) order, two per
	// recipient, then the event between the sends, then the second send;
	// each delivery appends its follow-up at its own instant with the
	// next schedule order.
	type entry struct {
		at       time.Duration
		seq      int
		what     string
		delivery bool // not a follow-up: firing it schedules one
		fired    bool
	}
	var pending []entry
	add := func(at time.Duration, what string, delivery bool) {
		pending = append(pending, entry{at: at, seq: len(pending), what: what, delivery: delivery})
	}
	delay := map[[2]string]time.Duration{{"a", "d0"}: 3 * ms, {"b", "d2"}: ms}
	send := func(from string) {
		for _, to := range ids {
			if to == from {
				continue
			}
			d, ok := delay[[2]string{from, to}]
			if !ok {
				d = 2 * ms
			}
			for copy := 0; copy < 2; copy++ {
				add(d, fmt.Sprintf("%s<%s@%v", to, from, d), true)
			}
		}
	}
	send("a")
	add(2*ms, fmt.Sprintf("between@%v", 2*ms), false)
	send("b")
	var want []string
	for {
		next := -1
		for i, e := range pending {
			if !e.fired && (next < 0 || e.at < pending[next].at || e.at == pending[next].at && e.seq < pending[next].seq) {
				next = i
			}
		}
		if next < 0 {
			break
		}
		pending[next].fired = true
		e := pending[next]
		want = append(want, e.what)
		if e.delivery {
			add(e.at, fmt.Sprintf("after %s@%v", e.what, e.at), false)
		}
	}
	if !slices.Equal(log, want) {
		t.Fatalf("delivery log\n  %s\nwant (instant, schedule order)\n  %s",
			strings.Join(log, "\n  "), strings.Join(want, "\n  "))
	}
}
