package transporttest

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"adaptiveqos/internal/clock"
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/transport"
)

// recorder is a testing.TB whose failures and cleanups are captured
// instead of acted on, so a test can watch Integrity fail.
type recorder struct {
	testing.TB
	errs     []string
	cleanups []func()
}

func (r *recorder) Helper() {}
func (r *recorder) Errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}
func (r *recorder) Cleanup(f func()) { r.cleanups = append(r.cleanups, f) }

func (r *recorder) finish() {
	for i := len(r.cleanups) - 1; i >= 0; i-- {
		r.cleanups[i]()
	}
}

// exchange is one publisher and two receivers on one network.
type exchange struct {
	pub  transport.Conn
	recv [2]transport.Conn
	env  message.Enveloper
	step func() // lets the virtual network deliver; no-op on the wall one
}

// exchanges runs f over an exchange on a network of each kind, watched
// on behalf of tb.
func exchanges(t *testing.T, tb testing.TB, f func(t *testing.T, g *Integrity, x *exchange)) {
	attach := func(t *testing.T, n interface {
		Attach(string) (transport.Conn, error)
	}, x *exchange) {
		var err error
		if x.pub, err = n.Attach("pub"); err != nil {
			t.Fatal(err)
		}
		for i := range x.recv {
			if x.recv[i], err = n.Attach(fmt.Sprintf("recv-%d", i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Run("SimNet", func(t *testing.T) {
		n := transport.NewSimNet(transport.SimNetConfig{})
		defer n.Close()
		x := &exchange{step: func() {}}
		attach(t, n, x)
		f(t, Watch(tb, n), x)
	})
	t.Run("DESNet", func(t *testing.T) {
		clk := clock.NewVirtual(time.Time{})
		n := transport.NewDESNet(transport.DESNetConfig{Clock: clk})
		defer n.Close()
		x := &exchange{step: func() { clk.Advance(time.Millisecond) }}
		attach(t, n, x)
		f(t, Watch(tb, n), x)
	})
}

// datagram envelopes one chat-sized message the way a real sender does.
func (x *exchange) datagram(t *testing.T, seq uint32, text string) []byte {
	t.Helper()
	d, err := x.env.WrapMessage(&message.Message{Kind: message.KindEvent, Sender: "pub", Seq: seq, Body: []byte(text)})
	if err != nil || len(d) != 1 {
		t.Fatalf("wrap: %d datagrams, %v", len(d), err)
	}
	return d[0]
}

// receive takes the next packet off a receiver's inbox and decodes it.
func (x *exchange) receive(t *testing.T, i int) *message.Message {
	t.Helper()
	x.step()
	select {
	case p := <-x.recv[i].Recv():
		frame, err := message.NewUnwrapper().Unwrap(p.From, p.Data)
		if err != nil {
			t.Fatal(err)
		}
		m, err := message.Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		return m
	case <-time.After(time.Second):
		t.Fatalf("recv-%d: nothing arrived", i)
		return nil
	}
}

// TestIntegrityPassesTheContract: senders that give fresh datagrams and
// receivers that only read are never reported, however many recipients
// share a frame and however long they hold its body.
func TestIntegrityPassesTheContract(t *testing.T) {
	exchanges(t, t, func(t *testing.T, g *Integrity, x *exchange) {
		var held []*message.Message
		for seq := uint32(1); seq <= 8; seq++ {
			if err := x.pub.Give("", x.datagram(t, seq, fmt.Sprintf("line %d", seq))); err != nil {
				t.Fatal(err)
			}
			held = append(held, x.receive(t, 0), x.receive(t, 1))
		}
		if g.Frames() != 8 {
			t.Errorf("saw %d distinct frames, want 8 (one per message, shared by both recipients)", g.Frames())
		}
		for i, m := range held {
			if want := fmt.Sprintf("line %d", i/2+1); string(m.Body) != want {
				t.Errorf("held body %d reads %q, want %q", i, m.Body, want)
			}
		}
	})
}

// TestIntegrityCatchesAReusedSendBuffer: the wrong variant of a sender —
// it gives its encode scratch away and then encodes the next message
// into it — is caught at the next sight of that buffer, and the report
// names the frame.
func TestIntegrityCatchesAReusedSendBuffer(t *testing.T) {
	rec := &recorder{TB: t}
	exchanges(t, rec, func(t *testing.T, g *Integrity, x *exchange) {
		rec.errs = nil
		scratch := make([]byte, 0, 256)
		for seq := uint32(1); seq <= 2; seq++ {
			scratch = append(scratch[:0], x.datagram(t, seq, fmt.Sprintf("line %d", seq))...)
			if err := x.pub.Give("", scratch); err != nil { // wrong: scratch is written again next round
				t.Fatal(err)
			}
			x.step()
		}
		if len(rec.errs) != 1 || !strings.Contains(rec.errs[0], "first seen pub→recv-0") || !strings.Contains(rec.errs[0], "when it reached recv-0") {
			t.Errorf("reused send buffer: reports %q", rec.errs)
		}
	})
}

// TestIntegrityCatchesAWriteThroughTheBody: the wrong variant of a
// consumer — it edits the body it was delivered — has changed the frame
// under the other recipient, and is caught by the end-of-test check
// even though the network never carries that frame again.
func TestIntegrityCatchesAWriteThroughTheBody(t *testing.T) {
	rec := &recorder{TB: t}
	exchanges(t, rec, func(t *testing.T, g *Integrity, x *exchange) {
		rec.errs = nil
		if err := x.pub.Give("", x.datagram(t, 1, "as sent")); err != nil {
			t.Fatal(err)
		}
		m0, m1 := x.receive(t, 0), x.receive(t, 1)
		m0.Body[0] = 'A' // wrong: the body is the datagram's own bytes
		if string(m1.Body) != "As sent" {
			t.Fatalf("bodies do not alias one frame: %q", m1.Body)
		}
		if len(rec.errs) != 0 {
			t.Fatalf("reported before any re-check: %q", rec.errs)
		}
		rec.finish() // the check Watch registered as a cleanup
		if len(rec.errs) != 1 || !strings.Contains(rec.errs[0], "first seen pub→recv-0") || !strings.Contains(rec.errs[0], "by the end of the test") {
			t.Errorf("write through a body: reports %q", rec.errs)
		}
	})
}
