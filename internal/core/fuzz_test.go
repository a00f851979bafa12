package core

import (
	"testing"
	"time"

	"adaptiveqos/internal/clock"
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/transport"
)

// nullConn is a substrate attachment that goes nowhere.
type nullConn string

func (c nullConn) ID() string                  { return string(c) }
func (nullConn) Multicast([]byte) error        { return nil }
func (nullConn) Unicast(string, []byte) error  { return nil }
func (nullConn) Recv() <-chan transport.Packet { return nil }
func (nullConn) Close() error                  { return nil }

// FuzzKernelHandlePacket feeds one arbitrary datagram to a kernel that
// is stalled on a gap with its order buffer full — the state in which
// a hostile sequence number has the most room to do damage.  Whatever
// the bytes, the kernel must not panic, must count (not propagate) a
// decode failure exactly when the codec rejects the datagram, and must
// keep every sender's parked state within MaxPending.
//
// The seed corpus (testdata/fuzz/FuzzKernelHandlePacket) is real
// output of Enveloper.WrapMessage: a chat event, an RTP data packet
// under a selector, a NACK control frame, the first fragment of a 3 KB
// event at MTU 1024, and the traced (0x02/0x03) envelope forms of a
// whole frame and of a fragment.
func FuzzKernelHandlePacket(f *testing.F) {
	const maxPending = 4
	var env message.Enveloper
	f.Fuzz(func(t *testing.T, datagram []byte) {
		clk := clock.NewVirtual(time.Unix(100, 0))
		k := NewKernel(nullConn("fuzz"), Config{Clock: clk, Repair: &RepairOptions{
			Coordinator: "coord", StallTimeout: time.Millisecond, MaxPending: maxPending,
		}})
		k.Deliver = func(*message.Message) {}
		k.Control = func(*message.Message) {}
		// Sender "s" lost seq 1; 2..5 fill its order buffer to the limit.
		for seq := uint32(2); seq < 2+maxPending; seq++ {
			d, err := env.WrapMessage(&message.Message{Kind: message.KindEvent, Sender: "s", Seq: seq})
			if err != nil {
				t.Fatal(err)
			}
			k.HandlePacket(transport.Packet{From: "s", Data: d[0]})
		}

		wantErrors := k.decodeErrors.Load()
		if frame, err := message.NewUnwrapper().Unwrap("s", datagram); err != nil {
			wantErrors++
		} else if frame != nil {
			if _, err := message.Decode(frame); err != nil {
				wantErrors++
			}
		}
		k.HandlePacket(transport.Packet{From: "s", Data: datagram})
		if got := k.decodeErrors.Load(); got != wantErrors {
			t.Errorf("decode errors = %d, want %d", got, wantErrors)
		}
		// Two polls a stall timeout apart walk the repair engine through
		// its NACK send as well.
		k.Poll(clk.Now())
		clk.Advance(time.Second)
		k.Poll(clk.Now())

		for sender, so := range k.order {
			_, parked := so.buf.Gap()
			if parked > maxPending || len(so.msgs) != parked {
				t.Errorf("sender %q: %d parked in the buffer, %d held by the kernel, limit %d",
					sender, parked, len(so.msgs), maxPending)
			}
		}
	})
}
