package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"adaptiveqos/internal/clock"
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/obs"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/session"
	"adaptiveqos/internal/transport"
)

// viewRig is one kernel fed by hand on a virtual clock: datagrams are
// built the way a publisher builds them and handed straight to
// HandlePacket.
type viewRig struct {
	t       *testing.T
	k       *Kernel
	env     message.Enveloper
	applied []string // "sender/seq" in Deliver order
}

func newViewRig(t *testing.T, id string, repair bool) *viewRig {
	t.Helper()
	r := &viewRig{t: t}
	var cfg Config
	if repair {
		cfg.Repair = &RepairOptions{Coordinator: "coordinator", StallTimeout: time.Second}
	}
	r.k = NewKernel(nullConn{id, clock.NewVirtual(time.Unix(100, 0))}, cfg)
	r.k.Deliver = func(m *message.Message) {
		r.applied = append(r.applied, fmt.Sprintf("%s/%d", m.Sender, m.Seq))
	}
	return r
}

// say builds the datagram of a chat line.
func (r *viewRig) say(sender string, seq uint32, sel string) transport.Packet {
	r.t.Helper()
	d, err := r.env.WrapMessage(&message.Message{
		Kind: message.KindEvent, Sender: sender, Seq: seq, Timestamp: time.Unix(100, 0), Selector: sel,
		Attrs: selector.Attributes{
			message.AttrApp:   selector.S("chat"),
			message.AttrMedia: selector.S("text"),
			message.AttrSize:  selector.N(5),
		},
		Body: []byte{0, 0, 0, 5, 'h', 'e', 'l', 'l', 'o'},
	})
	if err != nil || len(d) != 1 {
		r.t.Fatalf("wrap: %d datagrams, %v", len(d), err)
	}
	return transport.Packet{From: sender, Data: d[0]}
}

// A frame parked behind a gap has not been matched yet: when the gap
// closes it is judged by the profile the endpoint has then, not the one
// it had when the frame arrived.
func TestParkedFrameMatchedAsOfRelease(t *testing.T) {
	r := newViewRig(t, "recv", true)
	r.k.pm.SetInterest("topic", selector.S("a"))
	r.k.HandlePacket(r.say("pub", 2, `topic == "a"`)) // would pass now
	r.k.HandlePacket(r.say("pub", 3, `topic == "b"`)) // would be filtered now
	if len(r.applied) != 0 {
		t.Fatalf("delivered %v past a gap", r.applied)
	}
	r.k.pm.SetInterest("topic", selector.S("b"))
	r.k.HandlePacket(r.say("pub", 1, ""))
	if want := []string{"pub/1", "pub/3"}; !reflect.DeepEqual(r.applied, want) {
		t.Errorf("delivered %v, want %v: parked frames must meet the profile as of release", r.applied, want)
	}
	if got := r.k.filtered.Load(); got != 1 {
		t.Errorf("filtered = %d, want 1 (seq 2, at release)", got)
	}
}

// A frame the profile rejects still consumes its sequence number: the
// frames after it are delivered, nothing is parked behind it and no
// gap is left for repair to chase.
func TestFilteredFrameConsumesItsSeq(t *testing.T) {
	r := newViewRig(t, "recv", true)
	r.k.pm.SetInterest("topic", selector.S("a"))
	r.k.HandlePacket(r.say("pub", 1, `topic == "a"`))
	r.k.HandlePacket(r.say("pub", 2, `topic == "b"`))
	r.k.HandlePacket(r.say("pub", 3, `topic == "a"`))
	r.k.HandlePacket(r.say("pub", 2, `topic == "b"`)) // and again: a duplicate, not counted twice
	if want := []string{"pub/1", "pub/3"}; !reflect.DeepEqual(r.applied, want) {
		t.Errorf("delivered %v, want %v", r.applied, want)
	}
	so := r.k.order["pub"]
	if next, parked := so.buf.Gap(); next != 4 || parked != 0 {
		t.Errorf("waiting for %d with %d parked, want 4, 0", next, parked)
	}
	if got := r.k.filtered.Load(); got != 1 {
		t.Errorf("filtered = %d, want 1", got)
	}
}

// Each kernel owns its intern table: traffic through one leaves the
// other's untouched, and what two kernels deliver is equal but was
// interned apart.
func TestKernelsShareNoInternTable(t *testing.T) {
	a, b := newViewRig(t, "recv-a", false), newViewRig(t, "recv-b", false)
	for seq := uint32(1); seq <= 3; seq++ {
		a.k.HandlePacket(a.say("pub", seq, ""))
	}
	if len(a.applied) != 3 {
		t.Fatalf("delivered %v", a.applied)
	}
	if a.k.intern == (message.Interner{}) {
		t.Error("the receiving kernel interned nothing")
	}
	if b.k.intern != (message.Interner{}) {
		t.Error("an idle kernel's intern table was written to")
	}
}

// With instrumentation on, a frame that waits in its sender's order
// buffer is timed on the kernel's clock: on virtual time, seq 2 held
// 30 ms for seq 1 records exactly 30 ms in the reorder-stage histogram,
// and seq 1, released on arrival, records 0.  The coordinator archives
// each frame as it hears it, so it holds nothing back and times nothing.
func TestReorderStageTimesTheWaitOnVirtualTime(t *testing.T) {
	obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(false) })
	const wait = 30 * time.Millisecond
	for _, tc := range []struct {
		name      string
		handle    func(conn nullConn) func(transport.Packet)
		waits     uint64
		totalling time.Duration
	}{
		{"client", func(conn nullConn) func(transport.Packet) {
			k := NewKernel(conn, Config{Repair: &RepairOptions{Coordinator: "coordinator", StallTimeout: time.Second}})
			return k.HandlePacket
		}, 2, wait},
		{"coordinator", func(conn nullConn) func(transport.Packet) {
			return NewCoordinatorKernel(conn, session.Group{Objective: "reorder"}).HandlePacket
		}, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := clock.NewVirtual(time.Unix(100, 0))
			handle := tc.handle(nullConn{"recv", clk})
			r := &viewRig{t: t}
			before := obs.StageHistogram(obs.StageReorder).Snapshot()
			handle(r.say("pub", 2, ""))
			clk.Advance(wait)
			handle(r.say("pub", 1, ""))
			after := obs.StageHistogram(obs.StageReorder).Snapshot()
			if n, sum := after.Count-before.Count, after.Sum-before.Sum; n != tc.waits || sum != uint64(tc.totalling) {
				t.Errorf("reorder stage recorded %d waits totalling %v, want %d totalling %v", n, time.Duration(sum), tc.waits, tc.totalling)
			}
		})
	}
}
