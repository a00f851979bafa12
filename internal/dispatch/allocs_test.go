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
	conn := new(sinkConn)
	env := new(message.Enveloper)
	m := &message.Message{Kind: message.KindEvent, Sender: "s", Seq: 1, Body: []byte("one datagram")}
	for name, tx := range map[string]Deliverer{
		"unicast":   &Unicaster{Env: env, Conn: conn},
		"multicast": &Multicaster{Env: env, Conn: conn},
	} {
		conn.given = 0
		if n := testing.AllocsPerRun(200, func() { tx.Deliver("peer", m) }); n != 1 {
			t.Errorf("%s Deliver allocates %g times, want 1 (the datagram)", name, n)
		}
		if conn.given != 201 {
			t.Errorf("%s: %d datagrams given for 201 sends", name, conn.given)
		}
	}
}
