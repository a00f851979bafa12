package transport

import (
	"errors"
	"testing"
	"time"
)

func TestUDPTransportMulticastAndUnicast(t *testing.T) {
	tr := NewUDPTransport()
	a, err := tr.Listen("a", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := tr.Listen("b", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	c, err := tr.Listen("c", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if got := len(tr.peers); got != 3 {
		t.Fatalf("peers = %d, want 3", got)
	}

	if err := a.Multicast([]byte("to-all")); err != nil {
		t.Fatal(err)
	}
	for _, conn := range []Conn{b, c} {
		p := collect(t, conn.Recv(), 1, 2*time.Second)[0]
		if p.From != "a" || string(p.Data) != "to-all" || p.Unicast {
			t.Errorf("%s: %+v", conn.ID(), p)
		}
	}

	if err := b.Unicast("c", []byte("direct")); err != nil {
		t.Fatal(err)
	}
	p := collect(t, c.Recv(), 1, 2*time.Second)[0]
	if p.From != "b" || string(p.Data) != "direct" || !p.Unicast {
		t.Errorf("unicast: %+v", p)
	}

	if err := a.Unicast("ghost", []byte("x")); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown peer: %v", err)
	}

	// Give addresses the same two ways: a peer, or "" for the group.
	if err := c.Give("", []byte("given-to-all")); err != nil {
		t.Fatal(err)
	}
	if err := c.Give("a", []byte("given")); err != nil {
		t.Fatal(err)
	}
	if p := collect(t, b.Recv(), 1, 2*time.Second)[0]; p.From != "c" || string(p.Data) != "given-to-all" || p.Unicast {
		t.Errorf("group give: %+v", p)
	}
	got := collect(t, a.Recv(), 2, 2*time.Second)
	if got[0].Unicast == got[1].Unicast {
		t.Errorf("a should hold one group and one direct give: %+v", got)
	}
}

func TestUDPTransportClose(t *testing.T) {
	tr := NewUDPTransport()
	a, err := tr.Listen("a", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.Listen("b", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if err := a.Multicast([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("send after close: %v", err)
	}
	if _, ok := <-a.Recv(); ok {
		t.Error("recv channel should be closed after Close")
	}
	// a is gone from the peer set.
	if err := b.Unicast("a", []byte("x")); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unicast to closed peer: %v", err)
	}
	if got := len(tr.peers); got != 1 {
		t.Errorf("peers after close = %d, want 1", got)
	}
}

func TestUDPDatagramCodec(t *testing.T) {
	dg := encodeDatagram("sender-1", true, []byte("payload"))
	sender, unicast, frame, ok := decodeDatagram(dg)
	if !ok || sender != "sender-1" || !unicast || string(frame) != "payload" {
		t.Errorf("round trip: %q %v %q %v", sender, unicast, frame, ok)
	}
	if _, _, _, ok := decodeDatagram(nil); ok {
		t.Error("nil datagram should not decode")
	}
	if _, _, _, ok := decodeDatagram([]byte{0, 10, 'x'}); ok {
		t.Error("short datagram should not decode")
	}
	// Empty sender and empty frame are legal.
	sender, unicast, frame, ok = decodeDatagram(encodeDatagram("", false, nil))
	if !ok || sender != "" || unicast || len(frame) != 0 {
		t.Errorf("empty round trip: %q %v %q %v", sender, unicast, frame, ok)
	}
}
