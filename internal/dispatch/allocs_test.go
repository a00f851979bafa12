//go:build !race

package dispatch

import (
	"testing"

	"adaptiveqos/internal/clock"
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/transport"
)

// sinkConn is a substrate attachment that takes every frame and keeps
// none.
type sinkConn struct{ given int }

func (*sinkConn) ID() string                    { return "sink" }
func (*sinkConn) Clock() clock.Clock            { return clock.Wall }
func (*sinkConn) Multicast([]byte) error        { return nil }
func (*sinkConn) Unicast(string, []byte) error  { return nil }
func (c *sinkConn) Give(string, []byte) error   { c.given++; return nil }
func (*sinkConn) Recv() <-chan transport.Packet { return nil }
func (*sinkConn) Close() error                  { return nil }

// TestDeliverAllocatesTheDatagram: sending a message that fits one
// datagram allocates that datagram and nothing else — the encode buffer
// is pooled and the datagram list lives on the adapter's stack.
func TestDeliverAllocatesTheDatagram(t *testing.T) {
	deliverAllocs(t, &message.Message{Kind: message.KindEvent, Sender: "s", Seq: 1, Body: []byte("one datagram")}, 1)
}

// TestDeliverAllocatesOneBufferPerFragmentedMessage: a message too large
// for one datagram costs one allocation too — every fragment datagram is
// carved from one buffer, and the list of three fits the adapter's
// stack.
func TestDeliverAllocatesOneBufferPerFragmentedMessage(t *testing.T) {
	deliverAllocs(t, &message.Message{Kind: message.KindData, Sender: "s", Seq: 1, Body: make([]byte, 2500)}, 3)
}

// deliverAllocs sends m through each adapter at a 1 KiB MTU and checks
// that a send allocates once and gives the substrate its datagrams.
func deliverAllocs(t *testing.T, m *message.Message, datagrams int) {
	t.Helper()
	conn := new(sinkConn)
	env := &message.Enveloper{MTU: 1024}
	for name, tx := range map[string]Deliverer{
		"unicast":   &Unicaster{Env: env, Conn: conn},
		"multicast": &Multicaster{Env: env, Conn: conn},
	} {
		conn.given = 0
		if n := testing.AllocsPerRun(200, func() { tx.Deliver("peer", m) }); n != 1 {
			t.Errorf("%s Deliver of %d datagrams allocates %g times, want 1", name, datagrams, n)
		}
		if conn.given != 201*datagrams {
			t.Errorf("%s: %d datagrams given for 201 sends of %d", name, conn.given, datagrams)
		}
	}
}
